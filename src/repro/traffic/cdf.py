"""Piecewise-linear flow-size CDF, the format data-center traces are
published in (and the format HPCC's public simulator consumes)."""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import List, Sequence, Tuple


def _interp(x: float, xp: List[float], fp: List[float]) -> float:
    """``np.interp(x, xp, fp)`` for one finite ``x``, operation for
    operation (``xp`` non-decreasing; clamped to ``fp[0]`` / ``fp[-1]``
    outside it), so a seeded workload draws the sizes it always drew."""
    j = bisect_right(xp, x) - 1
    if j < 0:
        # census: an x below the table — tests/metrics/test_stats.py::test_interp_and_inversion_equal_numpy
        return fp[0]
    if j >= len(xp) - 1:
        # census: an x at or above the table's last point — tests/metrics/test_stats.py::test_interp_and_inversion_equal_numpy
        return fp[-1]
    if xp[j] == x:
        # census: an x on one of the table's points — tests/metrics/test_stats.py::test_interp_and_inversion_equal_numpy
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    return slope * (x - xp[j]) + fp[j]


class PiecewiseCdf:
    """A CDF given as ``(size_bytes, cumulative_probability)`` breakpoints.

    Sampling inverts the CDF with linear interpolation between breakpoints;
    sizes are clamped to >= 1 byte.  ``scale`` multiplies every sampled size
    — the knob DESIGN.md documents for shrinking workloads so pure-Python
    packet simulation stays tractable while preserving the distribution
    *shape* (slowdown is normalized, so comparisons survive scaling).
    """

    def __init__(self, points: Sequence[Tuple[float, float]], scale: float = 1.0) -> None:
        if len(points) < 2:
            raise ValueError("need at least two CDF points")
        sizes = [float(s) for s, _ in points]
        probs = [float(p) for _, p in points]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        if any(b < a for a, b in zip(probs, probs[1:])):
            raise ValueError("probabilities must be non-decreasing")
        if probs[0] < 0 or abs(probs[-1] - 1.0) > 1e-9:
            raise ValueError("CDF must start >= 0 and end at 1.0")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.sizes = sizes
        self.probs = probs
        self.scale = scale

    def sample(self, rng: random.Random) -> int:
        """One flow size in bytes."""
        return self._invert(rng.random())

    def _invert(self, u: float) -> int:
        size = _interp(u, self.probs, self.sizes) * self.scale
        return max(1, round(size))

    def mean(self) -> float:
        """Exact mean of the piecewise-linear distribution (scaled)."""
        total = 0.0
        for (s0, p0), (s1, p1) in zip(
            zip(self.sizes, self.probs), zip(self.sizes[1:], self.probs[1:])
        ):
            total += (p1 - p0) * (s0 + s1) / 2.0
        # Probability mass at the first breakpoint (CDF may start above 0).
        total += self.probs[0] * self.sizes[0]
        return total * self.scale
