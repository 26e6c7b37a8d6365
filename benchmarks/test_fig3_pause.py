"""Claim check: Fig. 3 — pause-frame counts at 200/400 Gb/s."""

from repro.experiments.fig3_pause_frames import run_fig3


def test_fig3_pause_frames(paper_scale):
    duration = 600.0 if not paper_scale else 1500.0
    counts = run_fig3(duration_us=duration)

    print("\nFig 3 — pause frames at the congestion point")
    print(f"{'rate':>8} {'dcqcn':>7} {'hpcc':>7} {'fncc':>7}")
    for rate, per_cc in counts.items():
        print(
            f"{rate:6.0f}G  {per_cc['dcqcn']:7d} {per_cc['hpcc']:7d} {per_cc['fncc']:7d}"
        )

    for rate, per_cc in counts.items():
        assert per_cc["fncc"] <= per_cc["hpcc"], f"@{rate}G"
        assert per_cc["fncc"] <= per_cc["dcqcn"], f"@{rate}G"
    # At 400G the sluggish schemes must actually hit PFC.
    assert counts[400.0]["dcqcn"] > 0
