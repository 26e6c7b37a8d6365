"""Fig. 3 — PFC pause frames at the congestion point at 200 and 400 Gb/s.

The paper: DCQCN and HPCC trigger more pause frames than FNCC at both
rates (FNCC's shallow queues stay under the 500 KB PFC threshold).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments.common import microbench_grid
from repro.units import KB

RATES_GBPS = (200.0, 400.0)
CCS = ("dcqcn", "hpcc", "fncc")


def run_fig3(
    rates: Sequence[float] = RATES_GBPS,
    ccs: Sequence[str] = CCS,
    pfc_xoff: int = 500 * KB,
    duration_us: float = 600.0,
    seed: int = 1,
) -> Dict[float, Dict[str, int]]:
    """Pause-frame counts per (rate, cc)."""
    grid = microbench_grid(
        rates, ccs, pfc_xoff=pfc_xoff, duration_us=duration_us, seed=seed
    )
    return {
        rate: {cc: r.pause_frames for cc, r in per_cc.items()}
        for rate, per_cc in grid.items()
    }


def main() -> None:
    counts = run_fig3()
    print("Fig 3 — pause frames at the congestion point")
    print(f"{'rate':>8} " + " ".join(f"{cc:>7}" for cc in CCS))
    for rate, per_cc in counts.items():
        print(f"{rate:6.0f}G  " + " ".join(f"{per_cc[cc]:7d}" for cc in CCS))


if __name__ == "__main__":  # pragma: no cover
    main()
