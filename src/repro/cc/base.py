"""The congestion-control interface.

One instance exists per flow (per sender QP).  The QP calls the hooks; the
CC responds by mutating ``qp.window`` (bytes) and ``qp.rate_gbps``.  Rate
and window are always kept consistent via ``R = W / T`` for window-based
schemes (Alg. 3 line 47); rate-only schemes (DCQCN, RoCC) leave the
window unlimited.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.transport.sender import SenderQP

#: Effectively-unlimited window for rate-only CC schemes.
UNLIMITED_WINDOW = float(1 << 50)


class CongestionControl:
    """Base class; every hook is optional."""

    #: Human-readable algorithm name (overridden by subclasses).
    name = "none"

    def on_flow_start(self, qp: "SenderQP") -> None:
        """Initialize ``qp.window`` / ``qp.rate_gbps`` before the first send."""
        qp.window = UNLIMITED_WINDOW
        qp.rate_gbps = qp.line_rate_gbps

    def on_ack(self, qp: "SenderQP", ack: "Packet") -> None:
        """Per-ACK update (INT, RTT, echo bits...)."""

    def on_cnp(self, qp: "SenderQP") -> None:
        """DCQCN congestion notification arrived."""

    def on_timeout(self, qp: "SenderQP") -> None:
        """Retransmission timeout fired (loss)."""

    def on_flow_finish(self, qp: "SenderQP") -> None:
        """Flow fully acknowledged; cancel any timers."""

    # -- shared helpers -----------------------------------------------------------
    @staticmethod
    def set_window(qp: "SenderQP", window_bytes: float, rtt_ps: int) -> None:
        """Apply W and the matching pacing rate R = W/T."""
        qp.window = window_bytes
        qp.rate_gbps = window_bytes / rtt_ps * 8000.0
