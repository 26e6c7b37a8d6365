"""Fig. 9 — the full micro-benchmark: queue length (a/c/e), per-flow rates
(b/d/f) and utilization (g/h) for RoCC, DCQCN, HPCC and FNCC at
100/200/400 Gb/s.

Headline observations reproduced:

* FNCC is the first to slow down after flow1 joins at 300 µs (paper:
  FNCC 300 µs < HPCC 330 µs < DCQCN 346 µs < RoCC 370 µs).
* FNCC's congestion-point queue stays the shallowest.
* FNCC converges to the fair rate fastest and keeps utilization highest.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.common import MicrobenchResult, microbench_grid
from repro.units import KB, to_us, us

RATES_GBPS = (100.0, 200.0, 400.0)
CCS = ("fncc", "hpcc", "dcqcn", "rocc")
#: When flow1 joins (Fig. 10's stagger).
JOIN_US = 300.0
#: "Slowed down": flow0 below this fraction of line rate.
RESPONSE_FRAC = 0.75
#: "Converged": both flows within this fraction of the fair share for
#: this many consecutive samples.
CONVERGE_TOLERANCE = 0.15
CONVERGE_HOLD_SAMPLES = 20


def response_time_us(result: MicrobenchResult) -> Optional[float]:
    """When flow0 first drops below :data:`RESPONSE_FRAC` of line rate
    after flow1 joins — the Fig. 9b 'first to slow down' metric."""
    threshold = RESPONSE_FRAC * result.link_rate_gbps
    t = result.rates[0].first_time_below(threshold, after_ps=us(JOIN_US))
    return to_us(t) if t >= 0 else None


def convergence_time_us(result: MicrobenchResult) -> Optional[float]:
    """When both flows first stay within :data:`CONVERGE_TOLERANCE` of the
    fair share (line/2) for :data:`CONVERGE_HOLD_SAMPLES` consecutive
    samples."""
    fair = result.link_rate_gbps / 2.0
    lo, hi = fair * (1 - CONVERGE_TOLERANCE), fair * (1 + CONVERGE_TOLERANCE)
    series = [result.rates[fid] for fid in sorted(result.rates)]
    times = series[0].times
    run_len = 0
    for i, t in enumerate(times):
        if t < us(JOIN_US):
            continue
        ok = all(
            lo <= s.values[i] <= hi for s in series if i < len(s.values)
        )
        run_len = run_len + 1 if ok else 0
        if run_len >= CONVERGE_HOLD_SAMPLES:
            return to_us(times[i - CONVERGE_HOLD_SAMPLES + 1])
    return None


def run_fig9(
    rates: Sequence[float] = RATES_GBPS,
    duration_us: float = 800.0,
    seed: int = 1,
    jobs: int = 1,
) -> Dict[float, Dict[str, MicrobenchResult]]:
    """All (rate, cc) cells of Fig. 9, over ``jobs`` worker processes."""
    return microbench_grid(rates, CCS, jobs=jobs, duration_us=duration_us, seed=seed)


def main(jobs: int = 1, seed: int = 1) -> None:
    results = run_fig9(seed=seed, jobs=jobs)
    for rate, per_cc in results.items():
        print(f"\nFig 9 @ {rate:.0f}Gbps")
        print(
            f"{'cc':>7} {'peakQ(KB)':>10} {'respond(us)':>12} "
            f"{'converge(us)':>13} {'util':>6} {'pauses':>7}"
        )
        for cc, r in per_cc.items():
            resp = response_time_us(r)
            conv = convergence_time_us(r)
            print(
                f"{cc:>7} {r.peak_queue_bytes / KB:10.1f} "
                f"{resp if resp is not None else float('nan'):12.1f} "
                f"{conv if conv is not None else float('nan'):13.1f} "
                f"{r.utilization.mean_after(us(100)):6.3f} {r.pause_frames:7d}"
            )


if __name__ == "__main__":  # pragma: no cover
    main()
