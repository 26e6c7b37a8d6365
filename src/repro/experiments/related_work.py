"""Related-work shoot-out (§6): all six CC schemes on the same
micro-benchmark, including the Timely/Swift extensions the paper discusses
but does not plot."""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments.common import MicrobenchResult, microbench_grid
from repro.experiments.fig9_microbench import response_time_us
from repro.units import KB, us

ALL_CCS = ("fncc", "hpcc", "dcqcn", "rocc", "timely", "swift")


def run_related_work(
    ccs: Sequence[str] = ALL_CCS,
    link_rate_gbps: float = 100.0,
    duration_us: float = 700.0,
    seed: int = 1,
) -> Dict[str, MicrobenchResult]:
    grid = microbench_grid((link_rate_gbps,), ccs, duration_us=duration_us, seed=seed)
    return grid[link_rate_gbps]


def main() -> None:
    results = run_related_work()
    print("Related-work comparison — two elephants, 100 Gb/s dumbbell")
    print(f"{'cc':>7} {'peakQ(KB)':>10} {'respond(us)':>12} {'util':>6} {'pauses':>7}")
    for cc, r in results.items():
        resp = response_time_us(r)
        print(
            f"{cc:>7} {r.peak_queue_bytes / KB:10.1f} "
            f"{resp if resp is not None else -1:12.1f} "
            f"{r.utilization.mean_after(us(100)):6.3f} {r.pause_frames:7d}"
        )
    try:
        from repro.viz import compare_series

        print("\nqueue-length sparklines (shared scale, KB):")
        print(
            compare_series(
                {cc: r.queue for cc, r in results.items()},
                y_scale=1 / KB,
                unit="KB",
            )
        )
    except Exception:  # pragma: no cover - viz is cosmetic
        pass


if __name__ == "__main__":  # pragma: no cover
    main()
