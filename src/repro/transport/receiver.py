"""The receiver context — ACK Generation Point (§3.2.3) and DCQCN NP.

One :class:`ReceiverQP` exists per inbound flow.  It generates cumulative
ACKs (per packet, or one per ``m`` packets — the paper's cumulative-ACK
scheme), echoes the INT stack for HPCC, writes the concurrent-flow count
``N`` for FNCC, and runs DCQCN's notification-point CNP pacing.

Reorder tolerance
-----------------
With a reordering load balancer installed (spray / flowlet / ConWeave-lite,
see :mod:`repro.lb`), packets of one flow may arrive out of order without
any loss having occurred.  When ``TransportConfig.reorder_window_bytes`` is
nonzero the QP absorbs such arrivals in a bounded out-of-order buffer and
delivers to the QP strictly in order:

* An arrival beyond ``rcv_nxt`` but inside the window is buffered
  *silently* — no duplicate ACK, because the hole is expected to fill from
  another path, and spurious dup-ACK storms would double ACK-path load
  under spray.  The cumulative ACK covering the buffered bytes goes out
  when the hole fills and the buffer drains.
* An arrival past the window (or when the buffer holds
  :data:`REORDER_MAX_PKTS` frames) is dropped with a duplicate cumulative ACK —
  exactly the signal the strict in-order path has always produced, so
  go-back-N recovery semantics are unchanged.
* Stale arrivals (``seq < rcv_nxt``: retransmissions after a timeout
  rewind) produce the classic duplicate ACK, window or not.
* CNP generation keys on the *arrival* of a CE-marked frame, before any
  buffering — congestion feedback timeliness does not depend on delivery
  order.

ConWeave-lite epochs: a packet flagged ``lb_tail`` is the last frame of a
rerouted epoch's old path.  When a tail for epoch ``e`` is *delivered in
order* while the buffer still holds frames, and the frame just past the
remaining hole belongs to epoch ``e+1`` (same FIFO path as the hole's
bytes), the hole cannot be in-flight reordering — the QP emits one
duplicate ACK as a loss hint (``tail_loss_hints``).  A newer epoch past
the hole leaves open the possibility of an intermediate epoch draining a
slower path, so no hint fires (double reroutes never cause spurious
retransmission).  Because ``install_lb`` arms the sender's
``dupack_rewind`` alongside the reorder window, that single duplicate ACK
triggers go-back-N immediately instead of waiting for a timeout.  A lost
tail marker degrades gracefully: delivery is seq-driven, so the buffer
drains normally once the hole fills by retransmission; the marker only
accelerates loss detection.

Frame trains (DESIGN.md §2.2): hosts are *train-opaque* — the port layer's
fused delivery pipeline never fuses into a host, so a train arriving at
the last hop unrolls to per-frame ``on_data`` calls automatically.  Every
ACK, CNP and reorder decision therefore observes exactly the per-frame
arrival sequence whichever hop path upstream frames took; nothing in
this module needs to split anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.net.packet import ACK, CNP, Packet
from repro.net.switch import INT_RECORD_BYTES
from repro.units import ACK_SIZE, CNP_SIZE, us

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.transport.flow import Flow

#: DCQCN NP: at most one CNP per flow per this interval (Zhu et al., §4).
CNP_INTERVAL_PS = us(50)
#: Frames the out-of-order buffer holds at most, whatever the byte window.
REORDER_MAX_PKTS = 512


class ReceiverQP:
    """Per-flow receive state at the destination host."""

    __slots__ = (
        "host",
        "flow",
        "rcv_nxt",
        "ack_every",
        "_unacked_pkts",
        "completed",
        "finish_ps",
        "cnp_enabled",
        "_last_cnp_ps",
        "_nic",
        "data_packets",
        "dup_acks_sent",
        "reorder_window_bytes",
        "_ooo",
        "_ooo_bytes",
        "ooo_buffered",
        "ooo_delivered",
        "ooo_overflows",
        "ooo_duplicates",
        "reroute_tails",
        "tail_loss_hints",
        "max_epoch_seen",
        "_last_tail_tag",
    )

    def __init__(
        self,
        host: "Host",
        flow: "Flow",
        ack_every: int = 1,
        cnp_enabled: bool = False,
        reorder_window_bytes: int = 0,
    ) -> None:
        self.host = host
        self._nic = None  # bound lazily: hosts may be wired after flow setup
        self.flow = flow
        self.rcv_nxt = 0
        self.ack_every = ack_every
        self._unacked_pkts = 0
        self.completed = False
        self.finish_ps: Optional[int] = None
        self.cnp_enabled = cnp_enabled
        self._last_cnp_ps = -(1 << 62)
        self.data_packets = 0
        self.dup_acks_sent = 0
        # Out-of-order buffer (reorder-tolerant receive; 0 = strict order).
        # The window check bounds occupancy by construction (every buffered
        # seq lies in [rcv_nxt, rcv_nxt + window)); _ooo_bytes is the
        # occupancy gauge monitors and leak tests read, not a limiter.
        self.reorder_window_bytes = reorder_window_bytes
        self._ooo: Dict[int, Packet] = {}
        self._ooo_bytes = 0
        self.ooo_buffered = 0
        self.ooo_delivered = 0
        self.ooo_overflows = 0
        self.ooo_duplicates = 0
        self.reroute_tails = 0
        self.tail_loss_hints = 0
        self.max_epoch_seen = -1
        self._last_tail_tag = -1  # epoch of the last in-order tail marker

    def on_data(self, pkt: Packet) -> None:
        """Consume one DATA frame.  In-order frames (and buffered frames
        becoming in-order) are delivered to the QP, each frame's terminal
        sink; the ACK it builds may alias ``pkt.int_records``."""
        self.data_packets += 1
        if self.cnp_enabled and pkt.ecn:
            self._maybe_send_cnp()
        if pkt.lb_tag > self.max_epoch_seen:
            self.max_epoch_seen = pkt.lb_tag
        if pkt.seq != self.rcv_nxt:
            if self.reorder_window_bytes == 0:
                # Strict in-order mode (possible only after a drop):
                # duplicate cumulative ACK so go-back-N can kick in.
                self.dup_acks_sent += 1
                self._send_ack(pkt, force=True)
                return
            self._on_out_of_order(pkt)
            return
        tails_before = self.reroute_tails
        self._deliver(pkt)
        if self._ooo:
            self._drain()
            # census: a rerouted epoch's tail that leaves a hole — tests/transport/test_reorder.py::TestEpochTail::test_tail_with_unexplained_hole_hints_loss
            if self._ooo and self.reroute_tails > tails_before:
                # A rerouted epoch's tail (epoch e) drained in order, yet a
                # hole still holds buffered frames back.  Loss is provable
                # only when the frame just past the hole belongs to epoch
                # e+1: the hole's bytes then rode the *same* (FIFO) path as
                # that frame, so they cannot still be in flight.  A newer
                # epoch past the hole means an intermediate epoch may
                # simply be draining a slower path — no hint then (a
                # double reroute must not trigger spurious go-back-N).
                nxt = self._ooo[min(self._ooo)]
                if nxt.lb_tag == self._last_tail_tag + 1:
                    self.tail_loss_hints += 1
                    self.dup_acks_sent += 1
                    self._send_ack(None, force=True, nack=True)

    # -- reorder buffer ------------------------------------------------------------
    def _on_out_of_order(self, pkt: Packet) -> None:
        seq = pkt.seq
        rcv_nxt = self.rcv_nxt
        if seq < rcv_nxt:
            # Stale (timeout-rewound retransmission): classic dup ACK,
            # NACK-flagged so an armed sender treats it as a retransmit
            # request even when ACK coalescing hides the duplicate seq.
            self.dup_acks_sent += 1
            self._send_ack(pkt, force=True, nack=True)
            if self._ooo:
                # A rewind is replaying old bytes; any buffered copies the
                # replay already overtook are dead — purge here (the rare
                # recovery path) so they stop counting against the window.
                self._purge_stale()
            return
        ooo = self._ooo
        if seq in ooo:
            # Same frame arrived twice (retransmitted overlap); the first
            # copy stays authoritative.
            self.ooo_duplicates += 1
            return
        # census: a full reorder window — tests/transport/test_reorder.py::TestEdgeCases::test_window_overflow_drops_with_dup_ack
        if (
            seq + pkt.payload > rcv_nxt + self.reorder_window_bytes
            or len(ooo) >= REORDER_MAX_PKTS
        ):
            # Window overflow: the frame is dropped, so request go-back-N
            # with a NACK-flagged duplicate cumulative ACK.
            self.ooo_overflows += 1
            self.dup_acks_sent += 1
            self._send_ack(pkt, force=True, nack=True)
            return
        ooo[seq] = pkt
        self._ooo_bytes += pkt.payload
        self.ooo_buffered += 1

    def _drain(self) -> None:
        """Deliver buffered frames that have become in-order.  Delivery is
        an exact-seq pop: arrivals and retransmissions segment on the same
        payload grid, so a buffered frame is always popped, never skipped
        (stale copies are purged on the stale-arrival path instead — this
        loop stays O(1) per delivered frame)."""
        ooo = self._ooo
        while True:
            pkt = ooo.pop(self.rcv_nxt, None)
            if pkt is None:
                break
            self._ooo_bytes -= pkt.payload
            self.ooo_delivered += 1
            self._deliver(pkt)

    def _purge_stale(self) -> None:
        """Drop buffered copies a rewind's replay has overtaken."""
        ooo = self._ooo
        stale = [s for s in ooo if s < self.rcv_nxt]
        # census: a stale arrival that overtook buffered copies — tests/transport/test_reorder.py::TestEdgeCases::test_a_stale_arrival_purges_copies_the_replay_overtook
        for s in stale:
            dead = ooo.pop(s)
            self._ooo_bytes -= dead.payload
            self.ooo_duplicates += 1

    def _deliver(self, pkt: Packet) -> None:
        """In-order delivery to the QP (the original on_data body)."""
        self.rcv_nxt += pkt.payload
        done = pkt.last
        if done and not self.completed:
            self.completed = True
            self.finish_ps = self.host.sim.now
            self.host.on_flow_received(self)
        self._unacked_pkts += 1
        if done or self._unacked_pkts >= self.ack_every:
            self._send_ack(pkt)
        if pkt.lb_tail:
            self.reroute_tails += 1
            self._last_tail_tag = pkt.lb_tag

    # -- ACK construction ----------------------------------------------------------
    def _send_ack(
        self, data_pkt: Optional[Packet], force: bool = False, nack: bool = False
    ) -> None:
        """``data_pkt=None`` builds a gratuitous cumulative ACK with no echo
        fields (the tail-drained loss hint); ``nack`` flags the ACK as an
        explicit retransmit request for the sender's fast rewind."""
        if not force:
            self._unacked_pkts = 0
        flow = self.flow
        # Positional (kind, flow_id, src, dst, seq, size, payload);
        # src/dst reversed — the ACK travels back to the sender.
        ack = Packet(ACK, flow.flow_id, flow.dst, flow.src, self.rcv_nxt, ACK_SIZE, 0)
        ack.last = self.completed
        if nack:
            ack.lb_tail = True  # ACK-side meaning: NACK (see packet.py)
        if data_pkt is not None:
            ack.ecn_echo = data_pkt.ecn
            ack.echo_sent_ts = data_pkt.sent_ts
            # HPCC: the receiver copies the request path's INT stack into
            # the ACK.
            if data_pkt.int_records:
                ack.int_records = data_pkt.int_records
                ack.size += INT_RECORD_BYTES * len(data_pkt.int_records)
        # FNCC §3.2.3: N = number of concurrent inbound flows (QP
        # connections), never less than 1 when ACKing.
        n = self.host._active_inbound
        ack.n_flows = n if n > 1 else 1
        nic = self._nic
        if nic is None:
            nic = self._nic = self.host.ports[0]
        nic.enqueue(ack)  # Host.transmit, inlined

    # -- DCQCN notification point -----------------------------------------------------
    def _maybe_send_cnp(self) -> None:
        now = self.host.sim.now
        if now - self._last_cnp_ps < CNP_INTERVAL_PS:
            return
        self._last_cnp_ps = now
        cnp = Packet(
            CNP,
            flow_id=self.flow.flow_id,
            src=self.flow.dst,
            dst=self.flow.src,
            size=CNP_SIZE,
        )
        self.host.transmit(cnp)
