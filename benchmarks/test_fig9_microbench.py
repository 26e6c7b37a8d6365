"""Claim check: Fig. 9 — the full micro-benchmark (queue, response, convergence,
utilization) for all four schemes at 100/200/400 Gb/s."""

from repro.experiments.fig9_microbench import (
    convergence_time_us,
    response_time_us,
    run_fig9,
)
from repro.units import KB, us


def test_fig9_microbenchmark(paper_scale):
    rates = (100.0, 200.0, 400.0) if paper_scale else (100.0, 400.0)
    results = run_fig9(rates=rates, duration_us=800.0)

    for rate, per_cc in results.items():
        print(f"\nFig 9 @ {rate:.0f}Gbps")
        print(f"{'cc':>7} {'peakQ(KB)':>10} {'respond(us)':>12} {'converge(us)':>13} {'util':>6} {'pauses':>7}")
        for cc, r in per_cc.items():
            resp = response_time_us(r)
            conv = convergence_time_us(r)
            print(
                f"{cc:>7} {r.peak_queue_bytes / KB:10.1f} "
                f"{resp if resp is not None else -1:12.1f} "
                f"{conv if conv is not None else -1:13.1f} "
                f"{r.utilization.mean_after(us(100)):6.3f} {r.pause_frames:7d}"
            )

    for rate, per_cc in results.items():
        # Fig 9a/c/e: FNCC shallowest queue.
        assert per_cc["fncc"].peak_queue_bytes == min(
            r.peak_queue_bytes for r in per_cc.values()
        ), f"@{rate}G"
        # Fig 9b/d/f: FNCC first to respond; RoCC last (or unresponsive).
        resp = {cc: response_time_us(r) for cc, r in per_cc.items()}
        assert resp["fncc"] < resp["hpcc"] < resp["dcqcn"], f"@{rate}G"
        # Fig 9g/h: FNCC keeps utilization high.
        assert per_cc["fncc"].utilization.mean_after(us(100)) > 0.85, f"@{rate}G"
