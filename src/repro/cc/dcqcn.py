"""DCQCN (Zhu et al., SIGCOMM'15) — the ECN/CNP baseline.

Switches RED-mark data packets (see :class:`repro.net.port.EcnConfig`); the
receiver's notification point sends at most one CNP per flow per 50 µs while
marks keep arriving; the sender's reaction point runs the classic rate state
machine:

* on CNP: ``Rt <- Rc``, ``Rc <- Rc * (1 - alpha/2)``,
  ``alpha <- (1-g)*alpha + g``, and the increase state machine resets.
* alpha decays by ``(1-g)`` every ``alpha_timer`` without CNPs.
* rate increases are driven by a timer and a byte counter running in
  parallel; each event does fast recovery (``Rc <- (Rt+Rc)/2``) until both
  counters pass ``F`` stages, then additive increase (``Rt += Rai``), then
  hyper increase (``Rt += Rhai``).

DCQCN is rate-only (no window), which is exactly why the paper's Figs. 1/3
show it queueing deeper and triggering more PFC pauses than window-limited
HPCC/FNCC.

Byte-counter note: the hardware counts transmitted bytes; we advance it on
acknowledged bytes (identical in steady state, documented substitution).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cc.base import UNLIMITED_WINDOW, CongestionControl
from repro.sim.timer import Timer
from repro.units import MB, us

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.transport.sender import SenderQP


class DcqcnConfig:
    """Defaults follow the DCQCN paper's recommended values (the FNCC paper
    states DCQCN "parameters are assigned to the default values recommended
    in research [25, 31]"): g=1/256, 55 us timers, F=5, Rai=40 Mb/s,
    Rhai=400 Mb/s.  The small Rai/Rhai are what make DCQCN recover slowly
    at 100G+ rates — the sluggishness Figs. 9 and 14/15 exhibit."""

    __slots__ = (
        "g",
        "alpha_timer_ps",
        "inc_timer_ps",
        "byte_counter",
        "stage_threshold",
        "rai_gbps",
        "rhai_gbps",
        "min_rate_gbps",
    )

    def __init__(
        self,
        g: float = 1.0 / 256.0,
        alpha_timer_ps: int = us(55),
        inc_timer_ps: int = us(55),
        byte_counter: int = 10 * MB,
        stage_threshold: int = 5,
        rai_gbps: float = 0.04,
        rhai_gbps: float = 0.4,
        min_rate_gbps: float = 0.1,
    ) -> None:
        if not (0.0 < g < 1.0):
            raise ValueError("g must be in (0,1)")
        if stage_threshold < 1:
            raise ValueError("stage threshold must be >= 1")
        self.g = g
        self.alpha_timer_ps = alpha_timer_ps
        self.inc_timer_ps = inc_timer_ps
        self.byte_counter = byte_counter
        self.stage_threshold = stage_threshold
        self.rai_gbps = rai_gbps
        self.rhai_gbps = rhai_gbps
        self.min_rate_gbps = min_rate_gbps


class Dcqcn(CongestionControl):
    name = "dcqcn"

    def __init__(self, config: Optional[DcqcnConfig] = None) -> None:
        self.config = config or DcqcnConfig()
        self.rc: float = 0.0  # current rate (Gbps)
        self.rt: float = 0.0  # target rate
        self.alpha: float = 1.0
        self.time_stage = 0
        self.byte_stage = 0
        self._bytes_since_inc = 0
        self._last_una = 0
        self._alpha_timer: Optional[Timer] = None
        self._inc_timer: Optional[Timer] = None
        self._qp: Optional["SenderQP"] = None
        self.cnps_received = 0

    # -- lifecycle -----------------------------------------------------------------
    def on_flow_start(self, qp: "SenderQP") -> None:
        self._qp = qp
        self.rc = qp.line_rate_gbps
        self.rt = qp.line_rate_gbps
        self.alpha = 1.0
        qp.window = UNLIMITED_WINDOW
        qp.rate_gbps = self.rc
        self._alpha_timer = Timer(qp.sim, self._alpha_fire, qp.host.lane)
        self._inc_timer = Timer(qp.sim, self._inc_fire, qp.host.lane)
        self._alpha_timer.start(self.config.alpha_timer_ps)
        self._inc_timer.start(self.config.inc_timer_ps)

    def on_flow_finish(self, qp: "SenderQP") -> None:
        if self._alpha_timer is not None:
            self._alpha_timer.cancel()
        if self._inc_timer is not None:
            self._inc_timer.cancel()

    # -- notification --------------------------------------------------------------
    def on_cnp(self, qp: "SenderQP") -> None:
        cfg = self.config
        self.cnps_received += 1
        self.rt = self.rc
        self.rc = max(cfg.min_rate_gbps, self.rc * (1.0 - self.alpha / 2.0))
        self.alpha = (1.0 - cfg.g) * self.alpha + cfg.g
        self.time_stage = 0
        self.byte_stage = 0
        self._bytes_since_inc = 0
        qp.rate_gbps = self.rc
        self._alpha_timer.start(cfg.alpha_timer_ps)
        self._inc_timer.start(cfg.inc_timer_ps)

    def on_ack(self, qp: "SenderQP", ack: "Packet") -> None:
        # Advance the byte counter on newly acknowledged bytes.
        delta = qp.snd_una - self._last_una
        if delta > 0:
            self._last_una = qp.snd_una
            self._bytes_since_inc += delta
            if self._bytes_since_inc >= self.config.byte_counter:
                self._bytes_since_inc -= self.config.byte_counter
                self.byte_stage += 1
                self._increase(qp)

    # -- timers ----------------------------------------------------------------------
    def _alpha_fire(self) -> None:
        self.alpha *= 1.0 - self.config.g
        self._alpha_timer.start(self.config.alpha_timer_ps)

    def _inc_fire(self) -> None:
        self.time_stage += 1
        if self._qp is not None and not self._qp.finished:
            self._increase(self._qp)
        self._inc_timer.start(self.config.inc_timer_ps)

    # -- rate increase state machine ---------------------------------------------------
    def _increase(self, qp: "SenderQP") -> None:
        cfg = self.config
        f = cfg.stage_threshold
        if self.time_stage < f and self.byte_stage < f:
            pass  # fast recovery: Rt unchanged
        elif self.time_stage >= f and self.byte_stage >= f:
            # census: both stage counters past the threshold — tests/cc/test_dcqcn.py::TestRateRecovery::test_hyper_increase_engages_past_threshold
            self.rt = min(qp.line_rate_gbps, self.rt + cfg.rhai_gbps)
        else:
            self.rt = min(qp.line_rate_gbps, self.rt + cfg.rai_gbps)
        self.rc = min(qp.line_rate_gbps, (self.rt + self.rc) / 2.0)
        qp.rate_gbps = self.rc
