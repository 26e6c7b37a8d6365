"""Claim check: Fig. 13e — the four-flow fairness staircase."""

import pytest

from repro.experiments.fig13_fairness import run_fairness


def test_fig13e_fairness_staircase(paper_scale):
    epoch_us = 1000.0 if not paper_scale else 100_000.0
    res = run_fairness("fncc", n_flows=4, epoch_us=epoch_us, sample_us=10.0)

    print("\nFig 13e — FNCC fairness staircase")
    print(f"{'epoch':>6} {'active':>7} {'fair':>7} {'jain':>6}")
    for t in res.epoch_probe_times():
        active = res.active_flows_at(t)
        print(
            f"{t / res.epoch_ps:6.1f} {len(active):>7} "
            f"{res.fair_share_at(t):7.1f} {res.jain_index_at(t):6.3f}"
        )

    for t in res.epoch_probe_times():
        active = res.active_flows_at(t)
        jain = res.jain_index_at(t)
        assert jain > 0.9, f"unfair at t={t} (jain={jain:.3f})"
        fair = res.fair_share_at(t)
        total = sum(res.rates[i].value_at(t) for i in active)
        # Aggregate near the bottleneck capacity (eta-scaled).
        assert total == pytest.approx(fair * len(active), rel=0.3)
