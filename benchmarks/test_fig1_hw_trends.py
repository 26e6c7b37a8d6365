"""Claim check: Fig. 1a — the hardware-trend dataset (static, trivially
fast; kept so every figure has exactly one regeneration target)."""

from repro.experiments.fig1_hw_trends import absorption_is_shrinking, run_fig1a


def test_fig1a_hw_trends():
    rows = run_fig1a()
    print("\nFig 1a — buffer/capacity (us):")
    for name, cap, buf, t in rows:
        print(f"  {name:>22}: {cap:5.1f} Tb/s, {buf:6.1f} MB -> {t:6.2f} us")
    assert len(rows) == 4
    assert absorption_is_shrinking(rows)
    # Newest generation absorbs bursts for barely half the time of 2015's.
    assert rows[-1][3] < 0.65 * rows[0][3]
