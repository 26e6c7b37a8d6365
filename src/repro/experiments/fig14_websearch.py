"""Fig. 14 — FCT slowdown (average / median / 95th / 99th) under the
WebSearch distribution at 50% load on a fat-tree, for DCQCN, HPCC, FNCC.

Paper headline for this workload: for flows > 1 MB, FNCC cuts the *median*
slowdown by ~12.4% vs HPCC and ~42.8% vs DCQCN; FNCC has the lowest tail
latency throughout.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional, Sequence

from repro.experiments.fct_experiment import (
    FctResult,
    compare_ccs_sweep,
    format_panel,
    run_fct_summary,
    slowdown_reduction,
)
from repro.metrics.fct import PERCENTILE_COLUMNS

CCS = ("dcqcn", "hpcc", "fncc")

#: The scaled-down Fig. 14 cell (DESIGN.md §1.1): ``run_fig14``'s defaults,
#: and what the ``--trace`` / ``--progress`` path and the 1 MB cut read, so
#: no path can run or bin a different cell from the plain one.
K, LOAD, SCALE = 4, 0.5, 0.1
#: The paper's "flows larger than 1 MB", in scaled bytes.
LONG_FLOW_MIN_SIZE = round(1_000_000 * SCALE)


def run_fig14(
    k: int = K,
    n_flows: int = 200,
    scale: float = SCALE,
    seed: int = 1,
    jobs: int = 1,
    **kwargs,
) -> Dict[str, FctResult]:
    """Per-CC runs are independent, so they fan out over ``jobs`` worker
    processes (``jobs=1`` = in-process; identical results either way)."""
    return compare_ccs_sweep(
        CCS,
        workload="websearch",
        k=k,
        load=LOAD,
        n_flows=n_flows,
        scale=scale,
        seed=seed,
        jobs=jobs,
        **kwargs,
    )


def long_flow_median_reduction(results: Dict[str, FctResult]) -> Dict[str, float]:
    """FNCC's median-slowdown reduction (%) vs each baseline for flows
    larger than :data:`LONG_FLOW_MIN_SIZE` (1 MB x scale in the paper)."""
    return slowdown_reduction(results, "median", min_size=LONG_FLOW_MIN_SIZE)


def _run_fig14_observed(
    ccs: Sequence[str],
    seed: int,
    n_flows: int,
    trace: Optional[str],
    progress: bool,
) -> Dict[str, FctResult]:
    """The telemetry path: one per-run :class:`~repro.obs.RunObservability`
    bundle per CC cell, run in-process (trace hooks and live progress
    cannot cross a process pool), merged into one Chrome trace file — one
    trace *process* per cell — with the merged registry snapshot riding
    in ``otherData``."""
    from repro.obs import (
        EventTracer,
        MetricsRegistry,
        ProgressReporter,
        RunObservability,
        export_chrome_trace,
        merge_snapshots,
    )

    results: Dict[str, FctResult] = {}
    bundles = []
    for cc in ccs:
        obs = RunObservability(
            registry=MetricsRegistry(),
            tracer=EventTracer() if trace else None,
            progress=ProgressReporter(label=cc) if progress else None,
        )
        results[cc] = run_fct_summary(
            cc,
            seed=seed,
            obs=obs,
            workload="websearch",
            k=K,
            load=LOAD,
            n_flows=n_flows,
            scale=SCALE,
        )
        obs.detach()
        bundles.append((cc, obs))
    if trace:
        export_chrome_trace(
            trace,
            [(cc, obs.tracer) for cc, obs in bundles],
            registry=merge_snapshots(obs.snapshot() for _, obs in bundles),
        )
        print(f"trace written to {trace}", file=sys.stderr)
    return results


def main(
    jobs: int = 1,
    seed: int = 1,
    quick: bool = False,
    trace: Optional[str] = None,
    progress: bool = False,
) -> None:
    n_flows = 60 if quick else 200
    if trace or progress:
        results = _run_fig14_observed(
            CCS, seed=seed, n_flows=n_flows, trace=trace, progress=progress,
        )
    else:
        results = run_fig14(seed=seed, jobs=jobs, n_flows=n_flows)
    for col in PERCENTILE_COLUMNS:
        print(format_panel(results, col, f"\nFig 14 ({col}) — WebSearch @50% load, FCT slowdown"))
    completed = {cc: r.completed() for cc, r in results.items()}
    print(f"\ncompleted flows: {completed}")
    red = long_flow_median_reduction(results)
    for cc, pct in red.items():
        print(f"FNCC median slowdown reduction vs {cc} (flows > 1MB-equivalent): {pct:.1f}%")


if __name__ == "__main__":  # pragma: no cover
    main()
