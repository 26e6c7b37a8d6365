"""Claim check: Fig. 15 — FB_Hadoop FCT slowdown on the fat-tree at 50% load."""

from repro.experiments.fct_experiment import format_panel
from repro.experiments.fig15_hadoop import run_fig15, short_flow_p95_reduction
from repro.metrics.fct import PERCENTILE_COLUMNS


def test_fig15_hadoop_fct(paper_scale):
    kwargs = (
        dict(k=4, n_flows=500, scale=1.0, seed=3)
        if not paper_scale
        else dict(k=8, n_flows=5000, scale=1.0, seed=3)
    )
    results = run_fig15(**kwargs)

    for col in PERCENTILE_COLUMNS:
        print("\n" + format_panel(results, col, f"Fig 15 ({col}) — FB_Hadoop @50%"))
    red = short_flow_p95_reduction(results)
    print(
        f"\nFNCC p95 reduction <100KB (paper: 27.4% vs HPCC, 88.9% vs DCQCN): "
        + ", ".join(f"{cc}={pct:.1f}%" for cc, pct in red.items())
    )

    for cc, r in results.items():
        assert r.completed() == kwargs["n_flows"], f"{cc} lost flows"
    # The paper's short-flow claim, as ordering: FNCC <= HPCC << DCQCN.
    p95 = {
        cc: r.table.aggregate("p95", max_size=100_000) for cc, r in results.items()
    }
    assert p95["fncc"] <= p95["hpcc"]
    assert p95["fncc"] < p95["dcqcn"]
    assert red["dcqcn"] > 20.0  # large gain over DCQCN
