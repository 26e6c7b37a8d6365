"""Terminal plots — render the paper's time-series figures as ASCII.

No plotting backend is available offline, so experiment CLIs draw
queue/rate series as labelled unicode sparklines on a shared scale —
enough to *see* a queue hump move between CC schemes.
"""

from __future__ import annotations

from typing import List

_SPARK = "▁▂▃▄▅▆▇█"

#: Sparkline columns.
WIDTH = 60


def compare_series(named_series: dict, y_scale: float = 1.0, unit: str = "") -> str:
    """One labelled sparkline per series, on a shared scale."""
    if not named_series:
        # census: no series — tests/test_viz.py::TestCompareSeries::test_empty_dict
        return ""
    all_vals: List[float] = []
    for s in named_series.values():
        all_vals.extend(v * y_scale for v in s.values)
    hi = max(all_vals) if all_vals else 1.0
    lines = []
    for name, s in named_series.items():
        vals = [v * y_scale for v in _resample(s.values, WIDTH)]
        if hi > 0:
            idx = [int(v / hi * (len(_SPARK) - 1)) for v in vals]
        else:
            # census: series that are all zero — tests/test_viz.py::TestCompareSeries::test_all_zero_series_draw_the_lowest_glyph
            idx = [0] * len(vals)
        spark = "".join(_SPARK[i] for i in idx)
        peak = max((v * y_scale for v in s.values), default=0.0)
        lines.append(f"{name:>8} {spark} peak={peak:.1f}{unit}")
    return "\n".join(lines)


def _resample(values: List[float], width: int) -> List[float]:
    """Max-pool down to ``width`` columns (peaks must stay visible)."""
    n = len(values)
    if n <= width:
        # census: a series no wider than the plot — tests/test_viz.py::TestCompareSeries::test_one_line_per_series
        return list(values)
    out = []
    for col in range(width):
        a = col * n // width
        b = max(a + 1, (col + 1) * n // width)
        out.append(max(values[a:b]))
    return out
