"""Figs. 13a-d — congestion at the first, middle, or last hop (Fig. 11
topologies), HPCC vs FNCC, with the LHCS ablation on the last hop.

Paper numbers (queue-depth reduction of FNCC vs HPCC): 37.5% first hop,
29.5% middle hop, 8.4% last hop without LHCS, 38.5% last hop with LHCS —
while keeping utilization at least as high.  Fig. 13d additionally shows
the last-hop flow rates snapping to ``fair * beta`` under LHCS.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

from repro.experiments.common import MicrobenchResult, run_microbench
from repro.topo.parkinglot import LOCATIONS, congestion_at
from repro.units import KB, us


def run_location(
    cc: str,
    location: str,
    duration_us: float = 800.0,
    seed: int = 1,
    **cc_params,
) -> MicrobenchResult:
    """One cell of Fig. 13a-c: two elephants colliding at ``location``,
    sampled at the egress the topology names as congested."""
    return run_microbench(
        cc,
        duration_us=duration_us,
        seed=seed,
        topo_builder=partial(congestion_at, location=location),
        **cc_params,
    )


def run_fig13(
    duration_us: float = 800.0, seed: int = 1
) -> Dict[str, Dict[str, MicrobenchResult]]:
    """All Fig. 13a-c cells.  Keys: location -> scheme, where scheme is
    'hpcc', 'fncc' (LHCS on) or 'fncc_nolhcs' (last hop only)."""
    out: Dict[str, Dict[str, MicrobenchResult]] = {}
    for loc in LOCATIONS:
        out[loc] = {
            "hpcc": run_location("hpcc", loc, duration_us=duration_us, seed=seed),
            "fncc": run_location("fncc", loc, duration_us=duration_us, seed=seed),
        }
        if loc == "last":
            out[loc]["fncc_nolhcs"] = run_location(
                "fncc", loc, duration_us=duration_us, seed=seed, lhcs_enabled=False
            )
    return out


def queue_reduction_pct(hpcc: MicrobenchResult, fncc: MicrobenchResult) -> float:
    """Peak-queue reduction of FNCC relative to HPCC (the Fig. 13 metric)."""
    base = hpcc.peak_queue_bytes
    return 100.0 * (base - fncc.peak_queue_bytes) / base


def main() -> None:
    results = run_fig13()
    print("Fig 13a-d — queue depth by congestion location (KB) and FNCC reduction")
    for loc, cells in results.items():
        hp = cells["hpcc"]
        fn = cells["fncc"]
        line = (
            f"{loc:>7}: HPCC={hp.peak_queue_bytes / KB:7.1f}  "
            f"FNCC={fn.peak_queue_bytes / KB:7.1f}  "
            f"reduction={queue_reduction_pct(hp, fn):5.1f}%  "
            f"util HPCC={hp.utilization.mean_after(us(100)):.3f} "
            f"FNCC={fn.utilization.mean_after(us(100)):.3f}"
        )
        if "fncc_nolhcs" in cells:
            nl = cells["fncc_nolhcs"]
            line += (
                f"  [no-LHCS peak={nl.peak_queue_bytes / KB:7.1f} "
                f"reduction={queue_reduction_pct(hp, nl):5.1f}%]"
            )
        print(line)


if __name__ == "__main__":  # pragma: no cover
    main()
