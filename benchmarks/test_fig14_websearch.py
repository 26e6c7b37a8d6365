"""Claim check: Fig. 14 — WebSearch FCT slowdown on the fat-tree at 50%
load."""

from repro.experiments.fct_experiment import format_panel
from repro.experiments.fig14_websearch import run_fig14
from repro.metrics.fct import PERCENTILE_COLUMNS


def test_fig14_websearch_fct(paper_scale):
    kwargs = (
        dict(k=4, n_flows=200, scale=0.1, seed=1)
        if not paper_scale
        else dict(k=8, n_flows=2000, scale=1.0, seed=1)
    )
    results = run_fig14(**kwargs)

    for col in PERCENTILE_COLUMNS:
        print("\n" + format_panel(results, col, f"Fig 14 ({col}) — WebSearch @50%"))

    for cc, r in results.items():
        assert r.completed() == kwargs["n_flows"], f"{cc} lost flows"
    # Whole-workload comparison: FNCC <= HPCC < DCQCN on the tails.
    p95 = {cc: r.table.aggregate("p95") for cc, r in results.items()}
    avg = {cc: r.table.aggregate("average") for cc, r in results.items()}
    print(f"\naggregate p95: {p95}\naggregate avg: {avg}")
    assert avg["fncc"] <= avg["hpcc"] * 1.05
    assert p95["fncc"] < p95["dcqcn"]
    assert avg["fncc"] < avg["dcqcn"]
