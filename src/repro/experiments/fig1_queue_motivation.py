"""Figs. 1b-d — queue length at the congestion point when two elephants
collide, at 100/200/400 Gb/s, for FNCC vs HPCC vs DCQCN.

The paper's claim: HPCC and DCQCN queue visibly deeper than FNCC at every
rate, and the gap grows with rate.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments.common import MicrobenchResult, microbench_grid
from repro.units import KB

RATES_GBPS = (100.0, 200.0, 400.0)
CCS = ("fncc", "hpcc", "dcqcn")


def run_fig1_queue(
    rates: Sequence[float] = RATES_GBPS,
    duration_us: float = 600.0,
) -> Dict[float, Dict[str, MicrobenchResult]]:
    """All (rate, cc) cells of Figs. 1b-d."""
    return microbench_grid(rates, CCS, duration_us=duration_us)


def main() -> None:
    results = run_fig1_queue()
    print("Fig 1b-d — peak queue length at the congestion point (KB)")
    print(f"{'rate':>8} " + " ".join(f"{cc:>9}" for cc in CCS))
    for rate, per_cc in results.items():
        cells = " ".join(f"{per_cc[cc].peak_queue_bytes / KB:9.1f}" for cc in CCS)
        print(f"{rate:6.0f}G  {cells}")


if __name__ == "__main__":  # pragma: no cover
    main()
