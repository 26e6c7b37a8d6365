"""Claim check: ablations of FNCC's design choices (not paper figures — the
studies DESIGN.md calls out: beta/alpha sweeps, ACK coalescing, LHCS
contribution, INT staleness)."""

from repro.experiments.ablations import (
    ack_coalescing_sweep,
    alpha_sweep,
    beta_sweep,
    int_staleness_sweep,
    lhcs_contribution,
)


def test_lhcs_contribution():
    res = lhcs_contribution()
    print(f"\nLHCS ablation (last-hop peak queue KB): {res}")
    assert res["fncc_lhcs"] <= res["fncc_nolhcs"]
    assert res["fncc_lhcs"] < res["hpcc"]


def test_beta_sweep():
    res = beta_sweep()
    print("\nbeta sweep (peakQ KB, util):")
    for b, (q, u) in res.items():
        print(f"  beta={b:4.2f}: q={q:7.1f}KB util={u:.3f}")
    # Smaller beta must not queue deeper than beta ~ 1.
    assert res[0.7][0] <= res[0.95][0] * 1.1


def test_alpha_sweep():
    res = alpha_sweep()
    print(f"\nalpha sweep (peakQ KB): {res}")
    # A threshold too high to ever fire behaves like no LHCS: deepest queue.
    assert res[1.05] <= res[1.5] * 1.1


def test_ack_coalescing_sweep():
    res = ack_coalescing_sweep()
    print(f"\nACK coalescing m -> peakQ KB: {res}")
    # Coarser ACKs mean staler notification: m=8 must not beat m=1.
    assert res[1] <= res[8] * 1.1


def test_int_staleness_sweep():
    res = int_staleness_sweep()
    print(f"\nAll_INT_Table refresh us -> peakQ KB: {res}")
    # Live readout (0) must not be worse than 20 us-stale telemetry.
    assert res[0.0] <= res[20.0] * 1.1
