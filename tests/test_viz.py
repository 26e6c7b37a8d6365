"""ASCII visualization helpers."""

from repro.metrics.series import TimeSeries
from repro.viz import compare_series


def series(values, dt=1_000_000):
    s = TimeSeries("t")
    for i, v in enumerate(values):
        s.append(i * dt, float(v))
    return s


class TestCompareSeries:
    def test_one_line_per_series(self):
        out = compare_series({"a": series([1, 2]), "b": series([3, 4])})
        assert len(out.splitlines()) == 2
        assert "peak=4.0" in out

    def test_shared_scale(self):
        # The small series must render low glyphs against the big one.
        out = compare_series({"small": series([1, 1]), "big": series([100, 100])})
        small_line, big_line = out.splitlines()
        assert "▁" in small_line
        assert "█" in big_line

    def test_empty_dict(self):
        assert compare_series({}) == ""

    def test_all_zero_series_draw_the_lowest_glyph(self):
        out = compare_series({"a": series([0, 0]), "b": series([0, 0])})
        assert {ch for ch in out.split()[1]} == {"▁"}
