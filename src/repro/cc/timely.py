"""TIMELY (Mittal et al., SIGCOMM'15) — RTT-gradient CC, related-work extension.

The sender measures per-ACK RTT from the echoed transmit timestamp and
adjusts rate on the *gradient* of smoothed RTT: additive increase when the
normalized gradient is non-positive, multiplicative decrease proportional to
the gradient when positive, with hard low/high RTT guard bands (HAI mode is
folded into the guard bands as in the paper's simplified algorithm).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cc.base import UNLIMITED_WINDOW, CongestionControl
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.transport.sender import SenderQP


class TimelyConfig:
    __slots__ = (
        "ewma_alpha",
        "t_low_ps",
        "t_high_ps",
        "add_step_gbps",
        "beta",
        "min_rate_gbps",
    )

    def __init__(
        self,
        ewma_alpha: float = 0.02,
        t_low_ps: int = us(10),
        t_high_ps: int = us(50),
        add_step_gbps: float = 1.0,
        beta: float = 0.8,
        min_rate_gbps: float = 0.1,
    ) -> None:
        if not (0.0 < ewma_alpha <= 1.0):
            raise ValueError("ewma_alpha must be in (0,1]")
        if t_low_ps >= t_high_ps:
            raise ValueError("t_low must be below t_high")
        self.ewma_alpha = ewma_alpha
        self.t_low_ps = t_low_ps
        self.t_high_ps = t_high_ps
        self.add_step_gbps = add_step_gbps
        self.beta = beta
        self.min_rate_gbps = min_rate_gbps


class Timely(CongestionControl):
    name = "timely"

    def __init__(self, config: Optional[TimelyConfig] = None) -> None:
        self.config = config or TimelyConfig()
        self._prev_rtt: Optional[int] = None
        self._rtt_diff_ewma = 0.0

    def on_flow_start(self, qp: "SenderQP") -> None:
        qp.window = UNLIMITED_WINDOW
        qp.rate_gbps = qp.line_rate_gbps

    def on_ack(self, qp: "SenderQP", ack: "Packet") -> None:
        if ack.echo_sent_ts <= 0:
            return
        rtt = qp.sim.now - ack.echo_sent_ts
        cfg = self.config
        if self._prev_rtt is None:
            self._prev_rtt = rtt
            return
        diff = rtt - self._prev_rtt
        self._prev_rtt = rtt
        a = cfg.ewma_alpha
        self._rtt_diff_ewma = (1 - a) * self._rtt_diff_ewma + a * diff
        # Normalize the gradient by the minimum RTT (the flow's base RTT).
        gradient = self._rtt_diff_ewma / max(1, qp.base_rtt_ps)
        rate = qp.rate_gbps
        if rtt < cfg.t_low_ps:
            # census: an RTT below T_low — tests/cc/test_delay_based.py::TestTimely::test_additive_increase_below_t_low
            rate += cfg.add_step_gbps
        elif rtt > cfg.t_high_ps:
            rate *= 1.0 - cfg.beta * (1.0 - cfg.t_high_ps / rtt)
        elif gradient <= 0:
            rate += cfg.add_step_gbps
        else:
            rate *= 1.0 - cfg.beta * min(1.0, gradient)
        qp.rate_gbps = min(qp.line_rate_gbps, max(cfg.min_rate_gbps, rate))
