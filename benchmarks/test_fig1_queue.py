"""Claim check: Figs. 1b-d — queue depth vs link rate, FNCC/HPCC/DCQCN.

Regenerates the motivation plot's data and asserts the paper's shape:
queues deepen with rate for the sluggish schemes, FNCC stays shallowest.
"""

from repro.experiments.fig1_queue_motivation import run_fig1_queue
from repro.units import KB


def test_fig1_queue_vs_rate(paper_scale):
    rates = (100.0, 200.0, 400.0)
    duration = 600.0 if not paper_scale else 1200.0
    results = run_fig1_queue(rates=rates, duration_us=duration)

    print("\nFig 1b-d — peak queue at congestion point (KB)")
    print(f"{'rate':>8} {'fncc':>9} {'hpcc':>9} {'dcqcn':>9}")
    for rate, per_cc in results.items():
        print(
            f"{rate:6.0f}G  "
            f"{per_cc['fncc'].peak_queue_bytes / KB:9.1f} "
            f"{per_cc['hpcc'].peak_queue_bytes / KB:9.1f} "
            f"{per_cc['dcqcn'].peak_queue_bytes / KB:9.1f}"
        )

    for rate, per_cc in results.items():
        fncc = per_cc["fncc"].peak_queue_bytes
        assert fncc < per_cc["hpcc"].peak_queue_bytes, f"@{rate}G"
        assert fncc < per_cc["dcqcn"].peak_queue_bytes, f"@{rate}G"
    # Deeper queues at higher rates for the sluggish schemes (Figs. 1b-d).
    assert (
        results[400.0]["dcqcn"].peak_queue_bytes
        > results[100.0]["dcqcn"].peak_queue_bytes
    )
