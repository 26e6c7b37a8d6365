"""Terminal plots — render the paper's time-series figures as ASCII.

No plotting backend is available offline, so examples and experiment CLIs
draw queue/rate/utilization series as fixed-grid character plots and
sparklines.  Deliberately tiny: rows of '*' on a time/value grid plus axis
labels — enough to *see* Fig. 9's queue hump move between CC schemes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.metrics.series import TimeSeries

_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A one-line unicode sparkline, resampled to ``width`` columns."""
    if not values:
        return ""
    vals = _resample(list(values), width)
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return _SPARK[0] * len(vals)
    return "".join(_SPARK[int((v - lo) / span * (len(_SPARK) - 1))] for v in vals)


def ascii_plot(
    series: TimeSeries,
    width: int = 72,
    height: int = 12,
    title: str = "",
    y_label: str = "",
    y_scale: float = 1.0,
) -> str:
    """A character grid plot of one time series (times in ps on the x-axis,
    values scaled by ``y_scale`` on the y-axis)."""
    if not series.times:
        return f"{title} (empty)"
    values = [v * y_scale for v in _resample(series.values, width)]
    lo = min(0.0, min(values))
    hi = max(values)
    if hi <= lo:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, v in enumerate(values):
        row = int((v - lo) / (hi - lo) * (height - 1))
        grid[height - 1 - row][x] = "*"
    lines: List[str] = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        label = hi if i == 0 else (lo if i == height - 1 else None)
        prefix = f"{label:10.1f} |" if label is not None else " " * 10 + " |"
        lines.append(prefix + "".join(row))
    t0, t1 = series.times[0] / 1e6, series.times[-1] / 1e6
    lines.append(" " * 11 + "+" + "-" * width)
    lines.append(" " * 11 + f"{t0:<10.0f}{'time (us)':^{max(0, width - 20)}}{t1:>10.0f}")
    if y_label:
        lines.append(f"  y: {y_label}")
    return "\n".join(lines)


def compare_series(
    named_series: dict,
    width: int = 60,
    y_scale: float = 1.0,
    unit: str = "",
) -> str:
    """One labelled sparkline per series, on a shared scale."""
    if not named_series:
        return ""
    all_vals: List[float] = []
    for s in named_series.values():
        all_vals.extend(v * y_scale for v in s.values)
    hi = max(all_vals) if all_vals else 1.0
    lines = []
    for name, s in named_series.items():
        vals = [v * y_scale for v in _resample(s.values, width)]
        if hi > 0:
            idx = [int(v / hi * (len(_SPARK) - 1)) for v in vals]
        else:
            idx = [0] * len(vals)
        spark = "".join(_SPARK[i] for i in idx)
        peak = max((v * y_scale for v in s.values), default=0.0)
        lines.append(f"{name:>8} {spark} peak={peak:.1f}{unit}")
    return "\n".join(lines)


def _resample(values: List[float], width: int) -> List[float]:
    """Max-pool down to ``width`` columns (peaks must stay visible)."""
    n = len(values)
    if n <= width:
        return list(values)
    out = []
    for col in range(width):
        a = col * n // width
        b = max(a + 1, (col + 1) * n // width)
        out.append(max(values[a:b]))
    return out
