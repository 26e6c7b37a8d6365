"""Shared-buffer switch with PFC, ECN, and INT insertion.

This is the Congestion Point of the paper.  Three INT modes:

* ``IntMode.NONE`` — plain switch (DCQCN/RoCC need no INT).
* ``IntMode.HPCC`` — append an INT record to every departing **data** packet
  (HPCC's request-path telemetry; the receiver echoes it in the ACK).
* ``IntMode.FNCC`` — Alg. 1: record each ACK's input port on ingress, and on
  egress insert the All_INT_Table entry for that port, i.e. the telemetry of
  the *request-direction* egress queue sharing the link the ACK arrived on.

PFC follows 802.1Qbb for the fabric's one lossless class (the paper runs
every flow on one service level and counts that class's pause frames):
per-ingress-port byte accounting against XOFF/XON thresholds, one
paused-upstream flag per ingress port; PAUSE/RESUME frames are control
frames that bypass the data queue and pause state.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.net.node import Node
from repro.net.packet import ACK, DATA, PAUSE, RESUME, INTRecord, Packet
from repro.net.port import EcnConfig, Port
from repro.units import DEFAULT_MTU, KB, MB, PAUSE_FRAME_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Width of one INT record on the wire (Fig. 7: 4+24+20+16 bits == 64 bits).
INT_RECORD_BYTES = 8


class IntMode(enum.Enum):
    NONE = 0
    HPCC = 1
    FNCC = 2


class SwitchConfig:
    """Static switch parameters.

    ``pfc_xoff`` defaults to the paper's 500 KB threshold (§5.1); ``pfc_xon``
    re-opens the upstream a couple of MTUs below XOFF to avoid flapping.
    ``int_table_refresh_ps`` > 0 models the "updated periodically" wording of
    §4.1 by snapshotting the All_INT_Table on a timer; 0 reads live state.
    """

    __slots__ = (
        "buffer_bytes",
        "pfc_enabled",
        "pfc_xoff",
        "pfc_xon",
        "int_mode",
        "ecn",
        "int_table_refresh_ps",
    )

    def __init__(
        self,
        buffer_bytes: int = 32 * MB,
        pfc_enabled: bool = True,
        pfc_xoff: int = 500 * KB,
        pfc_xon: Optional[int] = None,
        int_mode: IntMode = IntMode.NONE,
        ecn: Optional[EcnConfig] = None,
        int_table_refresh_ps: int = 0,
    ) -> None:
        if buffer_bytes <= 0:
            raise ValueError("buffer must be positive")
        if pfc_xon is None:
            pfc_xon = max(0, pfc_xoff - 2 * DEFAULT_MTU)
        if pfc_xon > pfc_xoff:
            raise ValueError("XON must not exceed XOFF")
        self.buffer_bytes = buffer_bytes
        self.pfc_enabled = pfc_enabled
        self.pfc_xoff = pfc_xoff
        self.pfc_xon = pfc_xon
        self.int_mode = int_mode
        self.ecn = ecn
        self.int_table_refresh_ps = int_table_refresh_ps


class Switch(Node):
    """An output-queued shared-buffer switch.

    Routing is pluggable: ``router(switch, pkt) -> out_port_index`` is
    installed by :mod:`repro.routing`.
    """

    def __init__(self, sim: "Simulator", name: str, config: SwitchConfig) -> None:
        super().__init__(sim, name)
        self.config = config
        # Hot-path caches: SwitchConfig is immutable after construction, so
        # the per-hop data path reads these flat attributes instead of
        # chasing the config chain.
        self._buffer_bytes = config.buffer_bytes
        self._pfc_on = config.pfc_enabled
        self._xoff = config.pfc_xoff
        self._xon = config.pfc_xon
        self._int_mode = config.int_mode
        self.router: Optional[Callable[["Switch", Packet], int]] = None
        # The load-balancing strategy instance that built ``router`` (set by
        # repro.lb.install_lb; None for hand-wired routers).  The hot path
        # never reads this — it exists for introspection and tests.
        self.lb: Optional[object] = None
        # Train pass-through predicate (DESIGN.md §2.2).  ``_lb_router``
        # is the exact closure the installed strategy produced (set by
        # repro.lb.install_lb); ``_train_ok`` is the live gate the fused
        # frame-train path in net/port.py reads per frame: it is True only
        # while a *static per-flow* strategy is installed on an untapped
        # switch.  install_lb derives it from the strategy's
        # ``train_transparent`` flag.  A router swapped in by hand no
        # longer matches ``_lb_router`` and splits trains per-frame
        # regardless; anything that wraps ``receive`` on a *switch* (the
        # FaultInjector, a test's tap) must clear ``_train_ok`` for the
        # wrapper's lifetime (hosts need nothing — trains never fuse into
        # hosts).
        self._lb_router: Optional[Callable[["Switch", Packet], int]] = None
        self._train_ok = False
        self.buffer_used = 0
        self.drops = 0
        # PFC state, indexed by ingress port: admitted bytes, and whether
        # that port's upstream is currently XOFF'd.
        self._pfc_bytes: List[int] = []
        self._pfc_paused_up: List[bool] = []
        # RoCC-style per-egress-port fair-rate controllers (installed by
        # cc.rocc).  Dense list indexed by port — the per-ACK departure hook
        # does a plain index instead of a dict hash.
        self.port_controllers: List[Optional[object]] = []
        # Optional snapshot table (int_table_refresh_ps > 0).
        self._int_snapshot: Optional[List[INTRecord]] = None
        self._ecn_rng = None

    # -- wiring ------------------------------------------------------------------
    def new_port(self, rate_gbps: float, prop_delay_ps: int) -> Port:
        """Create a port and its ingress PFC state."""
        port = super().new_port(rate_gbps, prop_delay_ps)
        self._pfc_bytes.append(0)
        self._pfc_paused_up.append(False)
        self.port_controllers.append(None)
        if self.config.ecn is not None:
            if self._ecn_rng is None:
                raise RuntimeError(
                    "ECN-enabled switch needs set_ecn_rng() before wiring ports"
                )
            port.set_ecn(self.config.ecn, self._ecn_rng)
        return port

    def set_ecn_rng(self, rng) -> None:
        """Give the switch the RNG stream its RED markers draw from, before
        any port is wired (:meth:`new_port` hands it to each)."""
        self._ecn_rng = rng

    def start(self) -> None:
        """Arm periodic machinery (All_INT_Table refresh), if configured."""
        if self.config.int_table_refresh_ps > 0:
            from repro.sim.timer import Periodic

            self._refresh_int_table(self.sim.now)
            Periodic(
                self.sim,
                self.config.int_table_refresh_ps,
                self._refresh_int_table,
                self.lane,
            ).start()

    # -- data path ------------------------------------------------------------------
    def receive(self, pkt: Packet, in_port: int) -> None:
        kind = pkt.kind
        if kind >= PAUSE:  # control frame (single compare on the data path)
            p = self.ports[in_port]
            if kind == PAUSE:
                p.pause_received += 1
                p.pause()
            else:
                p.resume()
                p.resume_received += 1
            return
        # Alg. 1 line 3: the ACK's input port is recorded as metadata.  (The
        # same metadata drives RoCC's fair-rate stamping, so record always.)
        if kind == ACK:
            pkt.fncc_in_port = in_port
        pkt.hops += 1
        # From here to the enqueue call, the fused pass in
        # net/port.py::Port._tx_deliver carries the other copy of this
        # body (forward decision, INT/RoCC stamp, admission, PFC) — change
        # them together; tests/property/test_trains.py compares the two.
        router = self.router
        if router is None:
            raise RuntimeError(f"switch {self.name} has no routing installed")
        out_port = router(self, pkt)
        in_p = pkt.in_port
        if out_port == in_p:
            raise RuntimeError(
                f"{self.name}: routing loop, {pkt!r} back out port {out_port}"
            )
        # INT stamping happens HERE — at forward time, not at delivery.
        # HPCC stamps the egress queue a data frame is about to join; FNCC
        # stamps the request-direction port the ACK arrived on (Alg. 1
        # line 8); RoCC min-combines the fair rate of that same port's
        # controller.  The stamp is a pure function of this switch's state
        # at this event, so a frame's bytes are final the moment it is
        # forwarded: the shard boundary protocol (DESIGN.md §11) exports
        # frames from the egress in-flight window and replays them in
        # another engine, which is only sound because nothing rewrites
        # them afterwards.
        # It also sits BEFORE shared-buffer/PFC admission so the size
        # admitted here is the size on_departure later releases.
        mode = self._int_mode
        if mode is not IntMode.NONE:
            if mode is IntMode.HPCC:
                if kind == DATA:
                    # INT append + qbytes_total inlined (per-hop hot path);
                    # the record describes the egress queue the frame is
                    # about to join.
                    eg = self.ports[out_port]
                    now = self.sim.now
                    acct = eg._acct
                    if acct and acct[0][0] <= now:
                        eg._prune(now)
                    rec = INTRecord(
                        eg.rate_gbps, now, eg.tx_bytes, eg._queued_bytes
                    )
                    recs = pkt.int_records
                    if recs is None:
                        pkt.int_records = [rec]
                    else:
                        recs.append(rec)
                    pkt.size += INT_RECORD_BYTES
            elif kind == ACK:  # FNCC
                # All_INT_Table lookup (Fig. 8), appended inline
                # (per-ACK-hop hot path); the record is built via __new__
                # to skip one Python call.
                snap = self._int_snapshot
                rec = INTRecord.__new__(INTRecord)
                # census: a switch that stamps its periodic INT table — tests/net/test_switch.py::TestFnccIntInsertion::test_snapshot_mode_reads_stale_table
                if snap is not None:
                    s = snap[in_p]
                    rec.bandwidth_gbps = s.bandwidth_gbps
                    rec.ts = s.ts
                    rec.tx_bytes = s.tx_bytes
                    rec.qlen = s.qlen
                else:
                    p = self.ports[in_p]
                    now = self.sim.now
                    acct = p._acct
                    if acct and acct[0][0] <= now:
                        p._prune(now)
                    rec.bandwidth_gbps = p.rate_gbps
                    rec.ts = now
                    rec.tx_bytes = p.tx_bytes
                    rec.qlen = p._queued_bytes
                recs = pkt.int_records
                if recs is None:
                    pkt.int_records = [rec]
                else:
                    recs.append(rec)
                pkt.size += INT_RECORD_BYTES
        if kind == ACK:
            ctrl = self.port_controllers[in_p]
            # census: a RoCC controller on the port — tests/net/test_switch.py::TestRoccStamping::test_ack_carries_min_fair_rate
            if ctrl is not None:
                rate = ctrl.fair_rate_gbps
                if pkt.rocc_rate_gbps is None or rate < pkt.rocc_rate_gbps:
                    pkt.rocc_rate_gbps = rate
        size = pkt.size
        # census: a full shared buffer — tests/net/test_switch.py::TestSharedBuffer::test_drop_when_buffer_full
        if self.buffer_used + size > self._buffer_bytes:  # shared-buffer admission
            self.drops += 1
            self.ports[in_p].drops += 1
            return
        self.buffer_used += size
        if self._pfc_on and kind < PAUSE:  # non-control, single compare
            pfc = self._pfc_bytes
            n = pfc[in_p] = pfc[in_p] + size
            if n >= self._xoff and not self._pfc_paused_up[in_p]:
                self._pfc_paused_up[in_p] = True
                self._send_pfc(in_p, PAUSE)
        self.ports[out_port].enqueue(pkt)

    def on_departure(self, pkt: Packet, port: Port) -> None:
        # Pure accounting: buffer release + PFC ingress-counter release.
        # Telemetry is stamped at forward time (receive) so a frame is
        # immutable once it sits in a port's in-flight window — the
        # property the shard boundary export relies on (DESIGN.md §11).
        # The frame's size therefore no longer changes between admission
        # and here: one read balances both.  (Port._tx_deliver inlines
        # this body for every stock switch, so only the equivalence
        # tests' classic reference side calls it — change them together.)
        size = pkt.size
        self.buffer_used -= size
        if self._pfc_on and pkt.kind < PAUSE:  # non-control, single compare
            in_p = pkt.in_port
            pfc = self._pfc_bytes
            n = pfc[in_p] = pfc[in_p] - size
            # census: the reference side's release that frees a paused ingress — tests/property/test_trains.py::TestDepartureCopy::test_reference_calls_on_departure_where_the_product_inlines_it
            if n <= self._xon and self._pfc_paused_up[in_p]:
                self._pfc_paused_up[in_p] = False
                self._send_pfc(in_p, RESUME)

    # -- All_INT_Table (Fig. 8) --------------------------------------------------
    def _refresh_int_table(self, _now: int) -> None:
        self._int_snapshot = [
            INTRecord(p.rate_gbps, self.sim.now, p.tx_bytes, p.qbytes_total)
            for p in self.ports
        ]

    # -- PFC ------------------------------------------------------------------------
    def _send_pfc(self, port_idx: int, kind: int) -> None:
        frame = Packet(kind, size=PAUSE_FRAME_SIZE)
        port = self.ports[port_idx]
        if kind == PAUSE:
            port.pause_sent += 1
        else:
            port.resume_sent += 1
        port.enqueue(frame)

    # -- introspection ------------------------------------------------------------
    def _recompute_train_ok(self) -> None:
        """Re-derive the train pass-through gate from live state — THE
        single definition of the predicate.  Called by
        :func:`repro.lb.install_lb` after binding a strategy and by
        whoever takes a ``receive`` wrapper off (the FaultInjector, a test's
        tap); the per-frame fast path reads the cached ``_train_ok`` plus
        the router-identity compare (the one term that can silently change
        without a notification)."""
        lb = self.lb
        self._train_ok = (
            lb is not None
            and getattr(lb, "train_transparent", False)
            and self.router is self._lb_router
            and "receive" not in self.__dict__
        )
