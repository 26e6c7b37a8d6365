"""``total`` / ``mean`` / ``percentile`` / ``ks_distance`` in plain python,
operation for operation what numpy computes on float64.

Every figure process needs a few hundred of these on lists of a few hundred
floats; importing numpy for that cost more than the run's reduce step
(DESIGN.md §5.4).  The results are *bit-equal* to ``ndarray.sum`` /
``ndarray.mean`` / ``np.percentile(..., method="linear")`` — not merely
close: a printed table rounds to two decimals, and a last-bit difference can
flip a digit.  That is why ``total`` reproduces numpy's pairwise summation
order instead of calling the more accurate ``math.fsum`` /
``statistics.fmean`` (or the builtin ``sum``, which compensates on
CPython >= 3.12).  ``tests/metrics/test_stats.py`` holds the equivalence with
numpy as oracle; this module is the one place that knows numpy's orders of
operation.

Integers are converted to float first, as numpy's float64 accumulator does;
numpy additionally sums casted input in 8192-item buffers, which cannot
matter while every partial sum is an integer below 2**53 — true of any
picosecond quantity this simulator produces.
"""

from __future__ import annotations

from bisect import bisect_right
from math import floor
from typing import Iterable, List, Sequence


def _pairwise_sum(a: List[float], lo: int, hi: int) -> float:
    """numpy's ``DOUBLE_pairwise_sum`` over ``a[lo:hi]``."""
    n = hi - lo
    if n < 8:
        res = -0.0  # numpy's start: a block of negative zeros keeps its sign
        for x in a[lo:hi]:
            res += x
        return res
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = a[lo : lo + 8]
        tail = hi - n % 8
        for i in range(lo + 8, tail, 8):
            r0 += a[i]
            r1 += a[i + 1]
            r2 += a[i + 2]
            r3 += a[i + 3]
            r4 += a[i + 4]
            r5 += a[i + 5]
            r6 += a[i + 6]
            r7 += a[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for x in a[tail:hi]:
            res += x
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a, lo, lo + half) + _pairwise_sum(a, lo + half, hi)


def total(values: Iterable[float]) -> float:
    """``np.asarray(values).sum()``: float64 ``add.reduce`` from 0.0."""
    a = list(map(float, values))
    return 0.0 + _pairwise_sum(a, 0, len(a))


def mean(values: Sequence[float]) -> float:
    """``np.asarray(values).mean()``; ``values`` must be non-empty."""
    if not values:
        raise ValueError("mean of an empty sequence")
    return total(values) / len(values)


def percentile(values: Iterable[float], q: float) -> float:
    """``np.percentile(values, q)`` (linear interpolation between the two
    nearest order statistics); ``values`` must be non-empty."""
    if not 0 <= q <= 100:
        raise ValueError("Percentiles must be in the range [0, 100]")
    s = sorted(values)
    if not s:
        raise ValueError("percentile of an empty sequence")
    virtual = (len(s) - 1) * (q / 100)
    if virtual >= len(s) - 1:
        return float(s[-1])
    lo = floor(virtual)
    a, b = s[lo], s[lo + 1]
    t = virtual - lo
    # Both branches of numpy's _lerp: each is exact at its own end point.
    if t >= 0.5:
        return float(b - (b - a) * (1 - t))
    return float(a + (b - a) * t)


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov–Smirnov statistic: the sup-norm distance
    between the empirical CDFs of ``a`` and ``b``.

    Used by the hybrid backend's validation gate (DESIGN.md §6) to compare
    whole slowdown *distributions*, which per-bin percentile checks can't:
    two backends may agree on every bin's p99 yet disagree on the shape in
    between."""
    xa = sorted(map(float, a))
    xb = sorted(map(float, b))
    if not xa or not xb:
        raise ValueError("ks_distance needs non-empty samples")
    return max(
        abs(bisect_right(xa, x) / len(xa) - bisect_right(xb, x) / len(xb))
        for x in xa + xb
    )

