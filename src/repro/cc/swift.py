"""Swift (Kumar et al., SIGCOMM'20) — delay-target CC, related-work extension.

Window-based AIMD against a target delay that scales with hop count and the
flow's fair share (the paper's "flow-scaled" target simplified to the base
target plus per-hop term).  Included because the FNCC paper discusses it in
related work; useful as an extra baseline in ablation benches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cc.base import CongestionControl
from repro.units import DEFAULT_MTU, us

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.transport.sender import SenderQP


class SwiftConfig:
    __slots__ = (
        "base_target_ps",
        "per_hop_ps",
        "ai_bytes",
        "md_beta",
        "max_mdf",
        "min_window_bytes",
    )

    def __init__(
        self,
        base_target_ps: int = us(25),
        per_hop_ps: int = us(1),
        ai_bytes: float = float(DEFAULT_MTU),
        md_beta: float = 0.8,
        max_mdf: float = 0.5,
        min_window_bytes: float = float(DEFAULT_MTU) / 4,
    ) -> None:
        if base_target_ps <= 0:
            raise ValueError("target must be positive")
        if not (0.0 < max_mdf < 1.0):
            raise ValueError("max_mdf must be in (0,1)")
        self.base_target_ps = base_target_ps
        self.per_hop_ps = per_hop_ps
        self.ai_bytes = ai_bytes
        self.md_beta = md_beta
        self.max_mdf = max_mdf
        self.min_window_bytes = min_window_bytes


class Swift(CongestionControl):
    name = "swift"

    def __init__(self, config: Optional[SwiftConfig] = None) -> None:
        self.config = config or SwiftConfig()
        self._last_decrease_ps = -(1 << 62)

    def on_flow_start(self, qp: "SenderQP") -> None:
        w_init = qp.line_rate_gbps / 8000.0 * qp.base_rtt_ps
        self.set_window(qp, w_init, qp.base_rtt_ps)
        self._w_max = w_init

    def on_ack(self, qp: "SenderQP", ack: "Packet") -> None:
        if ack.echo_sent_ts <= 0:
            return
        cfg = self.config
        rtt = qp.sim.now - ack.echo_sent_ts
        target = cfg.base_target_ps + cfg.per_hop_ps * max(1, ack.n_hops)
        target += qp.base_rtt_ps
        w = qp.window
        # census: a delay above the target, which related-work's dumbbell never builds — tests/cc/test_delay_based.py::TestSwift::test_decrease_above_target
        if rtt >= target:
            # At most one multiplicative decrease per RTT.
            if qp.sim.now - self._last_decrease_ps >= qp.base_rtt_ps:
                self._last_decrease_ps = qp.sim.now
                mdf = min(cfg.max_mdf, cfg.md_beta * (rtt - target) / rtt)
                w *= 1.0 - mdf
        else:
            # Additive increase, scaled per-ACK as in Swift.
            w += cfg.ai_bytes * (DEFAULT_MTU / max(w, 1.0))
            w = min(w, self._w_max)
        w = max(cfg.min_window_bytes, w)
        self.set_window(qp, w, qp.base_rtt_ps)
