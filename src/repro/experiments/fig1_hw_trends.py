"""Fig. 1a — NVIDIA Spectrum switch trends: buffer size is not keeping up
with capacity, so the burst-absorption time (buffer/capacity) keeps
shrinking.  A static dataset, reproduced for completeness."""

from __future__ import annotations

from typing import List, Tuple

from repro.traffic.distributions import NVIDIA_SWITCH_TRENDS, buffer_per_capacity_us


def run_fig1a() -> List[Tuple[str, float, float, float]]:
    """Rows of (generation, capacity Tb/s, buffer MB, absorption µs),
    ordered by capacity."""
    rows = []
    for name, d in NVIDIA_SWITCH_TRENDS.items():
        rows.append(
            (
                name,
                d["capacity_tbps"],
                d["buffer_mb"],
                buffer_per_capacity_us(d["capacity_tbps"], d["buffer_mb"]),
            )
        )
    rows.sort(key=lambda r: r[1])
    return rows


def absorption_is_shrinking(rows=None) -> bool:
    """The figure's point: burst-absorption time trends down as capacity
    grows.  (The real data is not strictly monotonic — Spectrum-2 briefly
    improved — so the claim is a negative trend: least-squares slope of
    absorption time over capacity is negative, and the newest generation is
    well below the oldest.)"""
    rows = rows or run_fig1a()
    caps = [r[1] for r in rows]
    times = [r[3] for r in rows]
    n = len(rows)
    mean_c = sum(caps) / n
    mean_t = sum(times) / n
    slope_num = sum((c - mean_c) * (t - mean_t) for c, t in zip(caps, times))
    return slope_num < 0 and times[-1] < times[0]


def main() -> None:
    rows = run_fig1a()
    print("Fig 1a — buffer/capacity trend (NVIDIA Spectrum)")
    print(f"{'generation':>22} {'Tb/s':>6} {'buf MB':>7} {'us':>7}")
    for name, cap, buf, t in rows:
        print(f"{name:>22} {cap:6.1f} {buf:7.1f} {t:7.2f}")
    print(f"monotonically shrinking: {absorption_is_shrinking(rows)}")


if __name__ == "__main__":  # pragma: no cover
    main()
