"""Fig. 15 — FCT slowdown under the FB_Hadoop distribution at 50% load.

Paper headline: for flows shorter than 100 KB, FNCC reduces 95th-percentile
slowdown by ~27.4% vs HPCC and ~88.9% vs DCQCN.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments.fct_experiment import (
    FctSummary,
    compare_ccs_sweep,
    format_panel,
    slowdown_reduction,
)
from repro.metrics.fct import PERCENTILE_COLUMNS

CCS = ("dcqcn", "hpcc", "fncc")


def run_fig15(
    ccs: Sequence[str] = CCS,
    k: int = 4,
    load: float = 0.5,
    n_flows: int = 300,
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    backend: str = "packet",
    **kwargs,
) -> Dict[str, FctSummary]:
    # Hadoop flows are small (median ~1 KB), so no size scaling is needed
    # even in pure Python — we run the distribution as published.  Per-CC
    # runs fan out over ``jobs`` worker processes (jobs=1 = in-process);
    # ``backend`` selects the engine per cell (DESIGN.md §6).
    return compare_ccs_sweep(
        ccs,
        workload="hadoop",
        k=k,
        load=load,
        n_flows=n_flows,
        scale=scale,
        seed=seed,
        jobs=jobs,
        backend=backend,
        **kwargs,
    )


def short_flow_p95_reduction(
    results: Dict[str, FctSummary], max_size: int = 100_000
) -> Dict[str, float]:
    """FNCC's p95 slowdown reduction (%) vs each baseline for flows shorter
    than ``max_size`` (100 KB in the paper)."""
    return slowdown_reduction(results, "p95", max_size=max_size)


def main(jobs: int = 1, seed: int = 1, backend: str = "packet") -> None:
    results = run_fig15(seed=seed, jobs=jobs, backend=backend)
    for col in PERCENTILE_COLUMNS:
        print(format_panel(results, col, f"\nFig 15 ({col}) — FB_Hadoop @50% load, FCT slowdown"))
    completed = {cc: r.completed() for cc, r in results.items()}
    print(f"\ncompleted flows: {completed}")
    red = short_flow_p95_reduction(results)
    for cc, pct in red.items():
        print(f"FNCC p95 slowdown reduction vs {cc} (flows < 100KB): {pct:.1f}%")


if __name__ == "__main__":  # pragma: no cover
    main()
