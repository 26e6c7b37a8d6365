"""TimeSeries container semantics."""

import pytest

from repro.metrics.series import TimeSeries


def filled():
    s = TimeSeries("t")
    for t, v in [(0, 1.0), (10, 5.0), (20, 3.0), (30, 0.5)]:
        s.append(t, v)
    return s


class TestBasics:
    def test_empty_series(self):
        s = TimeSeries()
        assert s.max() == 0.0
        assert s.mean_after(0) == 0.0
        assert s.value_at(100) == 0.0


class TestWindows:
    def test_mean_after_skips_warmup(self):
        s = filled()
        assert s.mean_after(15) == pytest.approx((3 + 0.5) / 2)

    def test_mean_after_boundary_is_inclusive(self):
        s = filled()
        # bisect_left: a sample exactly at the cut is included.
        assert s.mean_after(20) == pytest.approx((3 + 0.5) / 2)
        assert s.mean_after(31) == 0.0

    def test_max_after(self):
        s = filled()
        assert s.max_after(15) == 3.0
        assert s.max_after(100) == 0.0

    def test_max_between(self):
        s = filled()
        assert s.max_between(5, 25) == 5.0
        assert s.max_between(10, 10) == 5.0  # both ends inclusive
        assert s.max_between(11, 19) == 0.0  # empty window
        assert s.max_between(25, 5) == 0.0  # inverted window

    def test_cached_view_tracks_appends(self):
        s = filled()
        assert s.max_after(0) == 5.0  # builds the cache
        s.append(40, 9.0)
        assert s.max_after(0) == 9.0  # append invalidated it
        assert s.max() == 9.0

    def test_value_at_step_interpolation(self):
        s = filled()
        assert s.value_at(0) == 1.0
        assert s.value_at(15) == 5.0
        assert s.value_at(30) == 0.5
        assert s.value_at(999) == 0.5


class TestThresholdScans:
    def test_first_time_below(self):
        s = filled()
        assert s.first_time_below(1.0, after_ps=5) == 30
        assert s.first_time_below(0.1) == -1
