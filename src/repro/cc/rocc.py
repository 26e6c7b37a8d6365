"""RoCC (Taheri et al., CoNEXT'20) — switch-driven fair-rate baseline.

The congestion point runs a proportional-integral controller per egress
port: every update interval it moves the advertised fair rate opposite to
the queue error ``q - q_ref`` and its derivative.  The rate is conveyed to
senders by stamping it into ACKs that traverse the congested port's reverse
path (the same input-port metadata FNCC uses), taking the minimum along the
path; the sender simply adopts the stamped rate.

Substitution note (DESIGN.md): Cisco's RoCC generates dedicated feedback
packets; stamping ACKs delivers the identical information on the identical
path with one fewer packet type.  The paper's qualitative result — RoCC
converges at millisecond scale and is "hard to converge at the microsecond
level" (Fig. 9) — comes from the PI gains and update cadence, which we keep
at their published magnitudes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.cc.base import UNLIMITED_WINDOW, CongestionControl
from repro.sim.timer import Periodic
from repro.units import KB, us

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.net.switch import Switch
    from repro.transport.sender import SenderQP


class RoccConfig:
    """PI controller parameters.

    ``kp``/``ki`` are in Gbps per byte of queue error.  With the defaults a
    500 KB standing queue pulls the fair rate down by ~10 Gb/s per update
    (every 100 µs), i.e. convergence over hundreds of microseconds to
    milliseconds, matching the paper's observation.
    """

    __slots__ = ("q_ref_bytes", "update_interval_ps", "kp", "ki", "min_rate_gbps", "recover_gbps")

    def __init__(
        self,
        q_ref_bytes: int = 25 * KB,
        update_interval_ps: int = us(100),
        kp: float = 2e-5,
        ki: float = 2e-6,
        min_rate_gbps: float = 0.5,
        recover_gbps: float = 2.0,
    ) -> None:
        if q_ref_bytes < 0:
            raise ValueError("q_ref must be non-negative")
        if update_interval_ps <= 0:
            raise ValueError("update interval must be positive")
        self.q_ref_bytes = q_ref_bytes
        self.update_interval_ps = update_interval_ps
        self.kp = kp
        self.ki = ki
        self.min_rate_gbps = min_rate_gbps
        self.recover_gbps = recover_gbps


class RoccPortController:
    """Per-egress-port PI loop living at the switch."""

    __slots__ = ("port", "config", "fair_rate_gbps", "_q_prev", "_periodic")

    def __init__(self, switch: "Switch", port_idx: int, config: RoccConfig) -> None:
        self.port = switch.ports[port_idx]
        self.config = config
        self.fair_rate_gbps = self.port.rate_gbps
        self._q_prev = 0
        self._periodic = Periodic(
            switch.sim, config.update_interval_ps, self._update, switch.lane
        )

    def start(self) -> None:
        self._periodic.start()

    def _update(self, _now: int) -> None:
        cfg = self.config
        q = self.port.qbytes_total
        line = self.port.rate_gbps
        if q == 0 and self._q_prev == 0:
            # Idle port: recover toward line rate additively.
            self.fair_rate_gbps = min(line, self.fair_rate_gbps + cfg.recover_gbps)
        else:
            delta = -cfg.kp * (q - cfg.q_ref_bytes) - cfg.ki * (q - self._q_prev)
            self.fair_rate_gbps = min(line, max(cfg.min_rate_gbps, self.fair_rate_gbps + delta))
        self._q_prev = q


def install_rocc(
    switches: Iterable["Switch"], config: Optional[RoccConfig] = None
) -> List[RoccPortController]:
    """Attach and start a PI controller on every egress port of each switch."""
    config = config or RoccConfig()
    controllers: List[RoccPortController] = []
    for sw in switches:
        for idx in range(len(sw.ports)):
            ctrl = RoccPortController(sw, idx, config)
            sw.port_controllers[idx] = ctrl  # dense list, slot per port
            ctrl.start()
            controllers.append(ctrl)
    return controllers


class Rocc(CongestionControl):
    """Sender side: adopt the fair rate stamped into arriving ACKs."""

    name = "rocc"

    def on_flow_start(self, qp: "SenderQP") -> None:
        qp.window = UNLIMITED_WINDOW
        qp.rate_gbps = qp.line_rate_gbps

    def on_ack(self, qp: "SenderQP", ack: "Packet") -> None:
        rate = ack.rocc_rate_gbps
        if rate is not None:
            qp.rate_gbps = min(qp.line_rate_gbps, rate)
