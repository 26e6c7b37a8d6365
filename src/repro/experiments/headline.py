"""The abstract's headline numbers, derived from the Fig. 14/15 runs:

* "FNCC reduces flow completion time by 27.4% and 88.9% compared to HPCC
  and DCQCN" — 95th-percentile slowdown, flows < 100 KB, FB_Hadoop.
* "for flows larger than 1 MB, FNCC can reduce congestion by up to 12.4%
  compared to HPCC and 42.8% compared to DCQCN" — median slowdown,
  WebSearch.
* "FNCC triggers minimal pause frames and maintains high utilization even
  at 400Gbps" — from the Fig. 3 / Fig. 9 micro-benchmarks.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import microbench_grid
from repro.experiments.fig14_websearch import long_flow_median_reduction, run_fig14
from repro.experiments.fig15_hadoop import run_fig15, short_flow_p95_reduction
from repro.units import us


def run_headline(seed: int = 1, n_flows: int = 200, jobs: int = 1) -> Dict[str, object]:
    websearch = run_fig14(n_flows=n_flows, seed=seed, jobs=jobs)
    hadoop = run_fig15(n_flows=max(n_flows, 300), seed=seed, jobs=jobs)
    micro400 = microbench_grid(
        (400.0,), ("fncc", "hpcc", "dcqcn"), jobs=jobs, duration_us=600.0, seed=seed
    )[400.0]
    return {
        "hadoop_p95_reduction": short_flow_p95_reduction(hadoop),
        "websearch_median_reduction": long_flow_median_reduction(websearch),
        "pause_frames_400g": {cc: r.pause_frames for cc, r in micro400.items()},
        "utilization_400g": {
            cc: r.utilization.mean_after(us(100)) for cc, r in micro400.items()
        },
    }


def main(jobs: int = 1, seed: int = 1) -> None:
    res = run_headline(seed=seed, jobs=jobs)
    print("Headline claims (paper -> measured)")
    hp = res["hadoop_p95_reduction"]
    print(
        f"  Hadoop <100KB p95 FCT reduction: paper 27.4% vs HPCC / 88.9% vs DCQCN"
        f" -> measured {hp.get('hpcc', float('nan')):.1f}% / {hp.get('dcqcn', float('nan')):.1f}%"
    )
    ws = res["websearch_median_reduction"]
    print(
        f"  WebSearch >1MB median reduction: paper 12.4% vs HPCC / 42.8% vs DCQCN"
        f" -> measured {ws.get('hpcc', float('nan')):.1f}% / {ws.get('dcqcn', float('nan')):.1f}%"
    )
    print(f"  pause frames @400G: {res['pause_frames_400g']}")
    print(
        "  utilization @400G: "
        + ", ".join(f"{cc}={u:.3f}" for cc, u in res["utilization_400g"].items())
    )


if __name__ == "__main__":  # pragma: no cover
    main()
