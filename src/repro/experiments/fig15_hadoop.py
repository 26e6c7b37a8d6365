"""Fig. 15 — FCT slowdown under the FB_Hadoop distribution at 50% load.

Paper headline: for flows shorter than 100 KB, FNCC reduces 95th-percentile
slowdown by ~27.4% vs HPCC and ~88.9% vs DCQCN.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.fct_experiment import (
    FctResult,
    compare_ccs_sweep,
    format_panel,
    slowdown_reduction,
)
from repro.metrics.fct import PERCENTILE_COLUMNS

CCS = ("dcqcn", "hpcc", "fncc")
LOAD = 0.5
#: The paper's short-flow cut-off: 100 KB.
SHORT_FLOW_BYTES = 100_000


def run_fig15(
    k: int = 4,
    n_flows: int = 300,
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    backend: str = "packet",
    **kwargs,
) -> Dict[str, FctResult]:
    # Hadoop flows are small (median ~1 KB), so no size scaling is needed
    # even in pure Python — we run the distribution as published.  Per-CC
    # runs fan out over ``jobs`` worker processes (jobs=1 = in-process);
    # ``backend`` selects the engine per cell (DESIGN.md §6).
    return compare_ccs_sweep(
        CCS,
        workload="hadoop",
        k=k,
        load=LOAD,
        n_flows=n_flows,
        scale=scale,
        seed=seed,
        jobs=jobs,
        backend=backend,
        **kwargs,
    )


def short_flow_p95_reduction(results: Dict[str, FctResult]) -> Dict[str, float]:
    """FNCC's p95 slowdown reduction (%) vs each baseline for flows shorter
    than :data:`SHORT_FLOW_BYTES`."""
    return slowdown_reduction(results, "p95", max_size=SHORT_FLOW_BYTES)


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
