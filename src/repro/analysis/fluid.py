"""The Eq. 1-3 fluid model of the bottleneck queue.

Equation 1:  dq/dt = sum_i W_i(t)/RTT − Bandwidth
Equation 2:  at the fixed point, sum_i W_i/RTT = Bandwidth
Equation 3:  with equal windows, W_i = Bandwidth * RTT / N

:func:`simulate_queue` integrates Eq. 1 with scipy for an arbitrary window
schedule, which lets tests verify both the queue-growth phase the paper's
Fig. 1 motivates and the Observation-4 fixed point LHCS jumps to.  scipy is
the ``analysis`` extra; it and numpy are imported by that call alone —
nothing on the packet path needs either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class FluidLink:
    """A bottleneck link in the fluid model."""

    __slots__ = ("bandwidth_gbps", "rtt_ps")

    def __init__(self, bandwidth_gbps: float, rtt_ps: int) -> None:
        if bandwidth_gbps <= 0 or rtt_ps <= 0:
            raise ValueError("bandwidth and RTT must be positive")
        self.bandwidth_gbps = bandwidth_gbps
        self.rtt_ps = rtt_ps

    @property
    def bandwidth_bytes_per_ps(self) -> float:
        return self.bandwidth_gbps / 8000.0

    @property
    def bdp_bytes(self) -> float:
        return self.bandwidth_bytes_per_ps * self.rtt_ps


def fair_window(link: FluidLink, n_flows: int, beta: float = 1.0) -> float:
    """Equation 3: W_i = B * RTT * beta / N (beta < 1 drains the queue)."""
    if n_flows < 1:
        raise ValueError("need at least one flow")
    if not (0.0 < beta <= 1.0):
        raise ValueError("beta must be in (0, 1]")
    return link.bdp_bytes * beta / n_flows


def simulate_queue(
    link: FluidLink,
    window_fns: Sequence[Callable[[float], float]],
    t_end_ps: float,
    q0_bytes: float = 0.0,
    n_points: int = 200,
) -> Tuple[np.ndarray, np.ndarray]:
    """Integrate Eq. 1 for per-flow window schedules ``W_i(t)`` (bytes as a
    function of time in ps).  The queue is clipped at zero (a link cannot
    owe bytes).  Returns (times_ps, queue_bytes)."""
    if t_end_ps <= 0:
        raise ValueError("t_end must be positive")
    import numpy as np

    try:
        from scipy.integrate import solve_ivp
    except ImportError as exc:
        raise ImportError(
            "simulate_queue needs scipy: pip install '.[analysis]'"
        ) from exc
    b = link.bandwidth_bytes_per_ps
    rtt = link.rtt_ps

    def dq(t: float, q: np.ndarray) -> List[float]:
        arrival = sum(fn(t) for fn in window_fns) / rtt
        rate = arrival - b
        if q[0] <= 0.0 and rate < 0.0:
            return [0.0]
        return [rate]

    ts = np.linspace(0.0, float(t_end_ps), n_points)
    sol = solve_ivp(dq, (0.0, float(t_end_ps)), [q0_bytes], t_eval=ts, max_step=t_end_ps / 50)
    q = np.clip(sol.y[0], 0.0, None)
    return sol.t, q


def queue_growth_rate_bytes_per_ps(
    link: FluidLink, windows_bytes: Sequence[float]
) -> float:
    """Instantaneous dq/dt for fixed windows (Eq. 1's right-hand side)."""
    return sum(windows_bytes) / link.rtt_ps - link.bandwidth_bytes_per_ps


def is_fixed_point(
    link: FluidLink, windows_bytes: Sequence[float], tolerance: float = 1e-9
) -> bool:
    """Equation 2: the queue is stationary when offered rate equals B."""
    return abs(queue_growth_rate_bytes_per_ps(link, windows_bytes)) <= tolerance
