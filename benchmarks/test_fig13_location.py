"""Claim check: Figs. 13a-d — congestion location study with the LHCS ablation."""

import pytest

from repro.experiments.fig13_congestion_location import (
    queue_reduction_pct,
    run_fig13,
    run_location,
)
from repro.units import KB, us


def test_fig13_congestion_location():
    results = run_fig13(duration_us=800.0)

    print("\nFig 13a-c — FNCC queue-depth reduction vs HPCC (paper: 37.5/29.5/8.4/38.5%)")
    for loc, cells in results.items():
        hp, fn = cells["hpcc"], cells["fncc"]
        msg = (
            f"{loc:>7}: HPCC={hp.peak_queue_bytes / KB:7.1f}KB "
            f"FNCC={fn.peak_queue_bytes / KB:7.1f}KB "
            f"reduction={queue_reduction_pct(hp, fn):5.1f}% "
            f"util(F/H)={fn.utilization.mean_after(us(100)):.3f}/"
            f"{hp.utilization.mean_after(us(100)):.3f}"
        )
        if "fncc_nolhcs" in cells:
            nl = cells["fncc_nolhcs"]
            msg += f" | no-LHCS reduction={queue_reduction_pct(hp, nl):5.1f}%"
        print(msg)

    for loc, cells in results.items():
        hp, fn = cells["hpcc"], cells["fncc"]
        assert fn.peak_queue_bytes < hp.peak_queue_bytes, loc
        # Utilization at least comparable (within 5%).
        assert (
            fn.utilization.mean_after(us(100))
            >= hp.utilization.mean_after(us(100)) - 0.05
        ), loc
    # LHCS adds gain on the last hop over FNCC-without-LHCS.
    last = results["last"]
    assert (
        last["fncc"].peak_queue_bytes <= last["fncc_nolhcs"].peak_queue_bytes
    )


def test_fig13d_lhcs_rate_snap():
    """Fig. 13d: with LHCS the joining flows snap to fair*beta quickly."""
    res = run_location("fncc", "last", duration_us=600.0)
    fair_beta = 100.0 / 2 * 0.9
    # Within ~15 RTTs of the 300 us join both flows sit near fair*beta.
    t = us(500)
    r0 = res.rates[0].value_at(t)
    r1 = res.rates[1].value_at(t)
    print(f"\nFig 13d — rates at 500us: flow0={r0:.1f} flow1={r1:.1f} (fair*beta={fair_beta:.1f})")
    assert r0 == pytest.approx(fair_beta, rel=0.35)
    assert r1 == pytest.approx(fair_beta, rel=0.35)
