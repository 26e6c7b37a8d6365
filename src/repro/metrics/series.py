"""A small (time, value) series container.

Times are append-only and sorted (samplers only move forward), so every
windowed query locates its endpoints with ``bisect`` and reduces the slice
of the plain ``values`` list behind them — means through
:mod:`repro.metrics.stats`, bit-equal to the numpy reductions they replaced.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List

from repro.metrics import stats


class TimeSeries:
    """Append-only time series; values are floats, times are picoseconds."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[int] = []
        self.values: List[float] = []

    def append(self, t_ps: int, value: float) -> None:
        self.times.append(t_ps)
        self.values.append(value)

    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def mean_after(self, t_ps: int) -> float:
        """Mean of samples at or after ``t_ps`` (skip warm-up transients)."""
        i = bisect_left(self.times, t_ps)
        if i >= len(self.values):
            # census: a window past the last sample — tests/metrics/test_series.py::TestBasics::test_empty_series
            return 0.0
        return stats.mean(self.values[i:])

    def max_after(self, t_ps: int) -> float:
        i = bisect_left(self.times, t_ps)
        if i >= len(self.values):
            # census: a window past the last sample — tests/metrics/test_series.py::TestWindows::test_max_after
            return 0.0
        return float(max(self.values[i:]))

    def max_between(self, t0_ps: int, t1_ps: int) -> float:
        """Largest sample in the window [t0, t1]."""
        lo = bisect_left(self.times, t0_ps)
        hi = bisect_right(self.times, t1_ps)
        if lo >= hi:
            # census: an empty window — tests/metrics/test_series.py::TestWindows::test_max_between
            return 0.0
        return float(max(self.values[lo:hi]))

    def value_at(self, t_ps: int) -> float:
        """Last sample at or before ``t_ps`` (step interpolation)."""
        i = bisect_right(self.times, t_ps)
        return self.values[i - 1] if i else 0.0

    def first_time_below(self, threshold: float, after_ps: int = 0) -> int:
        """First sample time >= ``after_ps`` whose value is < ``threshold``;
        -1 if never."""
        values = self.values
        for i in range(bisect_left(self.times, after_ps), len(values)):
            if values[i] < threshold:
                return self.times[i]
        # census: a series that never drops below the threshold — tests/metrics/test_series.py::TestThresholdScans::test_first_time_below
        return -1
