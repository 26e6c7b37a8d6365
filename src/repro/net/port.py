"""Full-duplex port with an arithmetic egress transmitter.

A :class:`Port` is one end of a wire.  The fabric carries one lossless
class (the paper's RoCE setting: every flow on one service level), so the
egress side owns one FIFO data queue, one PFC pause flag, RED/ECN marking,
and the cumulative ``tx_bytes`` counter that INT exposes; PFC control frames
ride a separate queue that jumps pending data at the next frame boundary.
Its ingress side simply forwards delivered packets to the owning node.

Hot-path design (DESIGN.md §hot-path): instead of the classic
``kick → tx-done → deliver`` two-event chain, the transmitter is
*arithmetic*.  ``next_free_ps`` tracks when the serializer frees up; a
committed frame's start (``max(now, next_free_ps)``), finish
(``start + serialization``) and arrival (``finish + propagation``) are
computed immediately and the frame joins the in-flight FIFO.  Because
per-link arrivals are strictly ordered, the port keeps exactly **one**
outstanding scheduler event, armed for the head of that FIFO and re-armed
from its own callback (:meth:`Simulator.schedule_reuse`) — one event
dispatch per frame, a heap that stays a few entries deep, and zero event
churn when PFC re-sequences the wire.  Departure-side bookkeeping (tx
counters, INT stamping, PFC/buffer release via ``node.on_departure``)
piggybacks on the delivery event.

Commits are **bounded and lazy** (the pause-storm fix): instead of
committing the entire backlog at enqueue time, the port commits at most
``commit_lookahead`` (K) frames ahead of the serializer; the rest wait in
the data queue and are topped up one delivery at a time from
:meth:`Port._tx_deliver`.  A PFC XOFF/XON therefore only ever uncommits
and recommits the O(K) committed window — constant in the backlog — where
the eager design paid O(backlog) per transition.  The window obeys a
second rule, the *cover floor*: the serializer must stay booked through
the next delivery event (``next_free_ps >= _inflight[0].arrival``, the
next top-up opportunity), else lazy commits would let the wire idle and
change timing.  Because every lazy commit starts at exactly
``next_free_ps`` (never clamped up to ``now`` while covered), the wire
schedule is **bit-identical for every K >= 1** — including the eager
``K = inf`` schedule the previous engine produced — pause storms or not.
(That is a packet-backend statement: :meth:`Port.bg_drain`, which only the
hybrid backend calls, books serializer time behind whatever is committed,
so hybrid results do depend on the window — see ``TRAIN_MAX``.)

Store-and-forward timing is unchanged: a frame occupies the transmitter for
``serialization_ps(size, rate)`` and arrives at the peer ``prop_delay_ps``
after its serialization finishes.  PFC pause still takes effect at frame
boundaries, per IEEE 802.1Qbb: the frame being serialized when XOFF arrives
always completes; frames committed beyond ``now`` are *uncommitted* — they
leave the in-flight FIFO and return to the head of their queue — and only
control frames are recommitted while the port is paused.

Queue-length accounting is lazy: committed frames whose serialization has
not started yet still count as backlog (alongside parked frames the
window has not admitted yet, which count identically); :meth:`Port._prune`
retires accounting entries as the clock passes their start times, so
``qbytes_total`` reads exactly what the old eager engine reported (waiting
bytes, excluding the frame in service) at amortized O(1) per frame.

Frame trains (DESIGN.md §2.2): back-to-back bursts crossing an untapped
switch with a *static per-flow* router ride a **fused hop pipeline** —
:meth:`Port._tx_deliver` executes departure bookkeeping, the switch
forwarding decision (memoized per same-flow train), and the egress
enqueue in one pass, per frame, in the exact order and at the exact
timestamps of the classic ``on_departure -> receive -> enqueue`` chain, so
every counter, RNG draw and wire time is byte-identical to it.  On the
commit side, train formation widens the pending window from
``commit_lookahead`` to ``TRAIN_MAX`` on pause-free ports, batching the
lazy top-up; the PR 3 invariant (identical wire schedule for every window
size) makes the widening exact on the packet backend (see ``TRAIN_MAX``
for the hybrid backend's ``bg_drain``).  The port picks the path
per frame from state it already observes — there is no user switch — and
any per-frame mechanism puts the hop back on the classic chain the moment
it needs frame granularity: control frames, a PFC-paused or previously
XOFF'd port, a fault filter or test spy wrapping ``receive``, a per-packet LB
strategy (spray/flowlet/conweave), or a host endpoint (ACK/CC semantics
are per-frame by construction).
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappush
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from repro.net.packet import ACK, DATA, PAUSE, RESUME, INTRecord, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.sim.engine import Simulator


class EcnConfig:
    """RED-style ECN marking thresholds (used by DCQCN's congestion point).

    Marking probability rises linearly from 0 at ``kmin`` bytes to ``pmax``
    at ``kmax`` bytes, and is 1 above ``kmax``.
    """

    __slots__ = ("kmin", "kmax", "pmax")

    def __init__(self, kmin: int, kmax: int, pmax: float) -> None:
        if not (0 <= kmin <= kmax):
            raise ValueError(f"need 0 <= kmin <= kmax, got {kmin}, {kmax}")
        if not (0.0 <= pmax <= 1.0):
            raise ValueError(f"pmax must be in [0,1], got {pmax}")
        self.kmin = kmin
        self.kmax = kmax
        self.pmax = pmax

    def mark_probability(self, qlen_bytes: int) -> float:
        if qlen_bytes <= self.kmin:
            return 0.0
        if qlen_bytes >= self.kmax:
            return 1.0
        return self.pmax * (qlen_bytes - self.kmin) / (self.kmax - self.kmin)


#: Default commit lookahead: how many frames may sit committed-but-not-
#: started ahead of the serializer.  A PFC transition touches O(K) frames,
#: so keep it small; the cover floor (see the module docstring) admits
#: extra frames on long-propagation links regardless, so K only needs to
#: amortize the per-commit overhead.  Any K >= 1 produces the identical
#: wire schedule on the packet backend; hybrid results are pinned to this
#: value (see ``TRAIN_MAX``).
COMMIT_LOOKAHEAD = 3

#: Train formation cap: how many frames a single lazy top-up may commit on
#: a pause-free port that feeds a switch (the widened window batches the
#: per-delivery ``_commit`` cost across a burst).  On the packet backend
#: the wire schedule is identical for any value >= 1 (the PR 3 invariant,
#: PFC storms included — tests/property/test_trains.py::
#: TestCommitWindowExactness); the only cost of a larger value is that a
#: PFC XOFF on a previously pause-free port re-sequences O(TRAIN_MAX)
#: frames once, after which the port drops back to the tight
#: ``commit_lookahead`` window for good.  The hybrid backend is the
#: exception: ``bg_drain`` moves ``next_free_ps`` under whatever happens to
#: be committed, so where its background bytes land on the wire depends on
#: the window, and ``tests/hybrid/golden_hybrid.json`` is pinned to
#: ``COMMIT_LOOKAHEAD = 3`` / ``TRAIN_MAX = 8`` (an open modelling defect,
#: ROADMAP item 7 — which is also why host-facing ports are not widened).
TRAIN_MAX = 8

# Lazily resolved symbols from repro.net.switch (circular import: switch
# imports port for EcnConfig/Port).  Filled by _resolve_train_symbols().
_Switch = None
_HPCC = None
_NONE_INT = None
_INT_BYTES = 8


def _resolve_train_symbols():
    global _Switch, _HPCC, _NONE_INT, _INT_BYTES
    from repro.net.switch import INT_RECORD_BYTES, IntMode, Switch

    _Switch = Switch
    _HPCC = IntMode.HPCC
    _NONE_INT = IntMode.NONE
    _INT_BYTES = INT_RECORD_BYTES
    return Switch


#: The PFC ledger: control frames a port sent (egress) and got (ingress),
#: PAUSE then RESUME.  On a drained fabric every one sent is received once.
PFC_COUNTERS = ("pause_sent", "pause_received", "resume_sent", "resume_received")
#: Every counter a :class:`Port` keeps, in the column order of
#: :func:`repro.experiments.common.portstats_fingerprint`'s rows.  Each
#: fabric-wide reader (the fingerprint, the registry, the flight dump,
#: :func:`repro.metrics.monitors.port_totals`) derives from this list.
COUNTERS = (
    ("tx_packets", "tx_bytes", "rx_packets", "rx_bytes", "drops", "ecn_marked")
    + PFC_COUNTERS
    + ("max_qlen", "train_frames")
)
#: ``read_counters(port)`` -> the port's :data:`COUNTERS` values, in order.
read_counters = attrgetter(*COUNTERS)


class Port:
    """One end of a full-duplex link, owned by a :class:`~repro.net.node.Node`."""

    __slots__ = (
        "sim",
        "node",
        "index",
        "lane",
        "_lane_key",
        "rate_gbps",
        "prop_delay_ps",
        "peer",
        "queue",
        "ctrl",
        "paused",
        "ecn",
        "ecn_rng",
        "next_free_ps",
        "commit_lookahead",
        "_inflight",
        "_acct",
        "_queued_bytes",
        "_uncommitted",
        "_del_ev",
        "_departure_hook",
        "_ser",
        "_own_sw",
        "_peer_sw",
        "_rt_cache",
    ) + COUNTERS

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        index: int,
        rate_gbps: float,
        prop_delay_ps: int,
    ) -> None:
        if rate_gbps <= 0:
            raise ValueError("rate must be positive")
        if prop_delay_ps < 0:
            raise ValueError("propagation delay must be non-negative")
        self.sim = sim
        self.node = node
        self.index = index
        # Canonical tie-break lane for this port's delivery events, plus
        # its pre-shifted key contribution for the inlined re-arm below.
        self.lane = sim.alloc_lane()
        self._lane_key = self.lane << 44
        self.rate_gbps = rate_gbps
        self.prop_delay_ps = prop_delay_ps
        self.peer: Optional["Port"] = None
        self.queue: deque = deque()  # parked data frames
        self.ctrl: deque = deque()  # PFC frames bypass the data queue
        self.paused = False  # PFC XOFF received and not yet XON'd
        self.tx_bytes = 0  # cumulative, exposed via INT
        self.tx_packets = 0
        self.rx_packets = 0
        self.rx_bytes = 0
        self.max_qlen = 0  # backlog high watermark
        # PFC frames this port sent (egress) and got (ingress), frames
        # dropped on arrival here, and data frames ECN-marked on egress.
        self.pause_sent = 0
        self.resume_sent = 0
        self.pause_received = 0
        self.resume_received = 0
        self.drops = 0
        self.ecn_marked = 0
        self.ecn: Optional[EcnConfig] = None
        self.ecn_rng: Optional[random.Random] = None
        self.next_free_ps = 0  # when the serializer frees up
        # Bounded commit window: at most this many frames committed ahead
        # of the serializer (plus the cover floor); a PFC transition costs
        # O(commit_lookahead), never O(backlog).
        self.commit_lookahead = COMMIT_LOOKAHEAD
        self.train_frames = 0  # frame-hops that rode the fused train path
        # Per-port serialization-time memo: size -> round(size*8000/rate).
        # The rate is fixed for the port's lifetime and the memo stores the
        # very expression the hot paths inline, so a hit is bit-exact.
        self._ser: dict = {}
        # Fused-path classification (lazy — peers are wired after
        # construction): False = not yet classified, None = ineligible.
        self._own_sw = False
        self._peer_sw = False
        # Train route memo: static per-flow routing decisions, keyed by a
        # packed (flow_id, dst) int.  Valid only under the train predicate
        # (static per-flow router); repro.lb.install_lb clears it when a
        # new strategy is installed, and it is bounded (cleared on
        # overflow — every entry is recomputable from the packet alone).
        self._rt_cache: dict = {}
        # Committed frames, in service order: (arrival_ps, pkt).  The single
        # delivery event (_del_ev) is armed for the head entry.
        self._inflight: deque = deque()
        # Backlog bookkeeping for committed frames: (start_ps, size, pkt),
        # size 0 for control frames.  Entries with start <= now are lazily
        # retired by _prune; the start > now suffix mirrors the tail of
        # _inflight (the frames a PFC XOFF may still uncommit) and is
        # bounded by the commit window.
        self._acct: deque = deque()
        self._queued_bytes = 0  # waiting bytes: parked + pending commits
        self._uncommitted = 0  # frames parked in queue/ctrl (window, pause, re-seq)
        self._del_ev = None
        # Skip the per-frame on_departure call entirely for nodes that keep
        # the base no-op hook (hosts, test sinks); bound once at wiring.
        from repro.net.node import Node as _Node

        self._departure_hook = (
            None if type(node).on_departure is _Node.on_departure else node.on_departure
        )

    # -- configuration --------------------------------------------------------
    def set_ecn(self, cfg: Optional[EcnConfig], rng: Optional[random.Random]) -> None:
        if cfg is not None and rng is None:
            raise ValueError("ECN marking needs an RNG stream")
        self.ecn = cfg
        self.ecn_rng = rng

    # -- backlog accounting ----------------------------------------------------
    def _prune(self, now: int) -> None:
        """Retire accounting entries whose serialization has started."""
        acct = self._acct
        while acct:
            e = acct[0]
            if e[0] > now:
                break
            acct.popleft()
            size = e[1]
            if size:
                self._queued_bytes -= size

    @property
    def qbytes_total(self) -> int:
        """Current egress backlog in bytes (waiting frames, excluding the
        one in service — the Fig. 9 'queue length')."""
        acct = self._acct
        if acct and acct[0][0] <= self.sim.now:
            self._prune(self.sim.now)
        return self._queued_bytes

    # -- egress ----------------------------------------------------------------
    def enqueue(self, pkt: Packet) -> None:
        """Queue a frame for transmission (control frames jump the queue)."""
        if self.peer is None:
            raise RuntimeError(f"port {self!r} is not wired")
        now = self.sim.now
        acct = self._acct
        if acct and acct[0][0] <= now:
            self._prune(now)
        kind = pkt.kind
        if kind >= PAUSE:  # control frame (PFC PAUSE/RESUME)
            self.ctrl.append(pkt)
            self._uncommitted += 1
            if self._acct:
                # Pending data frames hold later wire slots; control jumps
                # them at the next frame boundary.
                self._uncommit_pending(now)
            self._commit(now)
            return
        size = pkt.size
        if (
            self._uncommitted == 0
            and not self.paused
            # Window rule: the pending window has a free slot, or the
            # serializer is not yet covered through the next delivery
            # (len(acct) >= K > 0 implies _inflight is non-empty).
            and (
                len(acct) < self.commit_lookahead
                or self.next_free_ps < self._inflight[0][0]
            )
        ):
            # Fast path (idle *and* shallow backlogged ports): nothing is
            # parked, the port is not paused, and the commit window has
            # room — so commit the frame at the wire tail without a deque
            # round-trip.
            qt = self._queued_bytes
            ecn = self.ecn
            if qt and ecn is not None and kind == DATA and not pkt.ecn:
                p = ecn.mark_probability(qt)
                # census: a queue past the marking threshold — tests/net/test_port.py::TestEcnMarking::test_marks_above_kmax
                if p > 0.0 and (p >= 1.0 or self.ecn_rng.random() < p):
                    pkt.ecn = True
                    self.ecn_marked += 1
            nf = self.next_free_ps
            start = nf if nf > now else now
            # Serialization memo (same expression, same rounding on miss).
            ser_map = self._ser
            ser = ser_map.get(size)
            if ser is None:
                ser = ser_map[size] = round(size * 8000 / self.rate_gbps)
            nf = start + ser
            inflight = self._inflight
            inflight.append((nf + self.prop_delay_ps, pkt))
            self.next_free_ps = nf
            if start > now:
                acct.append((start, size, pkt))
                qt = self._queued_bytes = qt + size
                if qt > self.max_qlen:
                    self.max_qlen = qt
            if self._del_ev is None:
                self._del_ev = self.sim.schedule_at(
                    inflight[0][0], self._tx_deliver, None, self.lane
                )
            return
        ecn = self.ecn
        if ecn is not None and kind == DATA and not pkt.ecn:
            p = ecn.mark_probability(self._queued_bytes)
            if p > 0.0 and (p >= 1.0 or self.ecn_rng.random() < p):
                pkt.ecn = True
                self.ecn_marked += 1
        self.queue.append(pkt)
        self._uncommitted += 1
        qt = self._queued_bytes = self._queued_bytes + size
        if qt > self.max_qlen:
            self.max_qlen = qt
        if len(acct) < self.commit_lookahead or not (
            self._inflight and self.next_free_ps >= self._inflight[0][0]
        ):
            # Window has room (or the serializer is uncovered): commit.
            # Otherwise the frame just parks; _tx_deliver tops up later.
            self._commit(now)

    def bg_drain(self, nbytes: int) -> None:
        """Steal serializer time for background bytes that exist only in
        the hybrid backend's fluid tier (DESIGN.md §6): the wire is busy
        for their serialization, so co-located packet-tier frames queue
        behind them, but no frame is created — ``tx_bytes`` keeps counting
        real frames only, which is what the residual-capacity sampler
        reads back.  ``next_free_ps`` only ever moves forward,
        already-committed frames keep their delivery times (the background
        bytes conceptually slot in behind them), and future commits start
        from the new tail.  One bounded-commit invariant does *not*
        survive: a frame committed behind background bytes waits with no
        frame in service ahead of it, so the whole of ``_inflight`` can be
        pending — ``_uncommit_pending`` handles that case."""
        now = self.sim.now
        nf = self.next_free_ps
        base = nf if nf > now else now
        self.next_free_ps = base + round(nbytes * 8000 / self.rate_gbps)

    def pause(self, prio: int = 0) -> None:
        """PFC XOFF (the in-flight frame completes).  ``prio`` names the
        one lossless class and must be 0.

        Cost: O(committed window) — the K-frame lookahead plus at most one
        propagation delay's worth of cover frames — independent of how
        deep the queue backlog is.  (The eager engine re-sequenced the
        entire backlog here: O(backlog) per transition, quadratic under
        pause storms.)"""
        if prio != 0:
            raise ValueError(f"one lossless class: prio must be 0, got {prio!r}")
        self.paused = True
        now = self.sim.now
        if self._acct:
            self._prune(now)
        if self._acct:
            # Uncommit the bounded window past the frame boundary; only
            # control frames recommit while paused.
            self._uncommit_pending(now)
            self._commit(now)

    def resume(self, prio: int = 0) -> None:
        """PFC XON; restart the transmitter if it was starved.  ``prio``
        names the one lossless class and must be 0.

        The empty-queue early return is provably safe: while the port is
        paused, data frames can wait in exactly one place — the queue.
        ``pause`` uncommits the whole pending window, and neither
        ``_commit`` nor the enqueue fast path commits data while paused,
        so no data frame survives in ``_acct``; control frames never park
        across events.  An empty ``queue`` therefore means there is
        nothing for this XON to restart.  No interleaving strands the
        transmitter — pinned by tests/net/test_port_pipeline.py and
        tests/property/test_pause_storm.py."""
        if prio != 0:
            raise ValueError(f"one lossless class: prio must be 0, got {prio!r}")
        self.paused = False
        if not self.queue:
            return
        now = self.sim.now
        # census: an XON with frames committed — tests/property/test_trains.py::TestRandomizedPauseScripts::test_random_pause_script
        if self._acct:
            self._prune(now)
            self._uncommit_pending(now)
        self._commit(now)

    def _uncommit_pending(self, now: int) -> None:
        """Return every committed-but-not-started frame to the head of its
        queue (``ctrl`` or ``queue``), preserving order.  Caller must have
        pruned first, so the whole ``_acct`` deque is the pending set —
        which also mirrors the tail of ``_inflight``.  A frame in service
        or on the wire sits ahead of it in ``_inflight`` and is untouched,
        so the armed delivery event stays valid; when there is none (every
        committed frame was still waiting behind ``bg_drain`` bytes) the
        delivery is disarmed with its frame.  The pending set is bounded by the commit window, so
        this is O(K), not O(backlog)."""
        acct = self._acct
        if not acct:
            # census: a pause with no frame pending — tests/property/test_pause_storm.py::TestAgainstBruteForceReference::test_deliveries_and_accounting_never_diverge
            return
        # Pending frames chain back-to-back behind the in-flight frame, so
        # the first pending start is exactly when the serializer frees up.
        self.next_free_ps = acct[0][0]
        inflight = self._inflight
        ctrl = self.ctrl
        queue = self.queue
        while acct:
            pkt = acct.pop()[2]
            inflight.pop()  # same frame, tail position mirrors _acct
            self._uncommitted += 1
            if pkt.kind >= PAUSE:
                # census: a control frame in the pending window — tests/property/test_pause_storm.py::TestAgainstBruteForceReference::test_schedule_identical_for_every_lookahead
                ctrl.appendleft(pkt)
            else:
                queue.appendleft(pkt)
        # census: a pause with every committed frame behind a drain — tests/net/test_port_pipeline.py::TestUncommitBehindBackgroundDrain::test_pause_with_every_committed_frame_still_waiting
        if not inflight and self._del_ev is not None:
            # The armed delivery's own frame went back to a queue (only
            # after a bg_drain: real frames leave one in service ahead of
            # the pending set).  Disarm, so _commit re-arms for whatever
            # becomes the head instead of firing on an empty deque.
            self._del_ev.cancel()
            self._del_ev = None

    def _commit(self, now: int) -> None:
        """Commit transmittable frames to the wire arithmetically, up to
        the bounded lookahead window, and make sure the single delivery
        event is armed.

        The window rule has a cap and a floor:

        * **cap** — at most ``commit_lookahead`` (K) frames may sit in the
          committed-pending window (``_acct``), so a PFC transition only
          ever re-sequences O(K) frames;
        * **floor** — the serializer must stay booked through the next
          delivery event (``next_free_ps >= _inflight[0].arrival``), which
          is the next chance to top the window up.  Without the floor a
          lazy commit could start later than the eager schedule (wire
          idles between deliveries); with it, every commit starts exactly
          at ``next_free_ps``, so the schedule is bit-identical for any
          K >= 1.  On a link with propagation delay the floor admits at
          most one propagation delay's worth of frames — still O(1) in
          the backlog.

        Control frames ignore the cap: PFC PAUSE/RESUME must hit the wire
        at the next frame boundary regardless of window state (they are
        rare and carry zero backlog bytes).

        Caller must have pruned ``_acct`` (all entries ``start > now``) so
        its length is the pending-window occupancy."""
        nf = self.next_free_ps
        if nf < now:
            nf = now
        prop = self.prop_delay_ps
        acct = self._acct
        inflight = self._inflight
        ser_map = self._ser
        ctrl = self.ctrl
        while ctrl:
            pkt = ctrl.popleft()
            self._uncommitted -= 1
            start = nf
            # Serialization memo (same expression, same rounding on miss).
            ser = ser_map.get(pkt.size)
            if ser is None:
                # census: a frame size this port has not serialized — tests/net/test_switch.py::TestPfc::test_resume_sent_after_drain
                ser = ser_map[pkt.size] = round(pkt.size * 8000 / self.rate_gbps)
            nf = start + ser
            inflight.append((nf + prop, pkt))
            if start > now:
                acct.append((start, 0, pkt))
        k = self.commit_lookahead
        if self._peer_sw and k < TRAIN_MAX and self.pause_received == 0:
            # Train formation: on a pause-free, train-eligible port (the
            # peer is a stock switch — classified at first delivery) the
            # pending window may batch-fill to TRAIN_MAX, amortizing the
            # per-delivery top-up over a burst.  Exact on the packet
            # backend for any cap (PR 3 invariant; see TRAIN_MAX for the
            # hybrid backend); a port that has been XOFF'd keeps the tight
            # window so pause storms stay O(commit_lookahead) per
            # transition, and test/sink fabrics keep the documented
            # commit_lookahead bound.
            k = TRAIN_MAX
        # The cover target is the armed delivery's arrival: fixed for the
        # whole call (commits append at the FIFO tail, never the head).
        cover = inflight[0][0] if inflight else None
        if not self.paused:
            q = self.queue
            while q:
                if cover is not None and nf >= cover and len(acct) >= k:
                    # Window full and the serializer covered through the
                    # next top-up opportunity: park the rest.
                    break
                pkt = q.popleft()
                self._uncommitted -= 1
                size = pkt.size
                start = nf
                ser = ser_map.get(size)
                if ser is None:
                    ser = ser_map[size] = round(size * 8000 / self.rate_gbps)
                nf = start + ser
                arrival = nf + prop
                inflight.append((arrival, pkt))
                if cover is None:
                    cover = arrival
                if start > now:
                    acct.append((start, size, pkt))
                else:  # started immediately: no longer backlog
                    self._queued_bytes -= size
        self.next_free_ps = nf
        if self._del_ev is None and inflight:
            self._del_ev = self.sim.schedule_at(
                inflight[0][0], self._tx_deliver, None, self.lane
            )

    def _classify_train_path(self):
        """One-time (per port) static classification for the fused train
        path.  The owner side qualifies when its departure hook is absent
        or the stock ``Switch.on_departure``; the peer side when the peer
        node is a switch whose class-level ``receive`` is the stock one.
        The *dynamic* split triggers — a wrapped ``receive``, router identity,
        strategy staticness — live in the peer switch's
        ``_train_ok`` flag plus the per-frame router identity compare;
        class-level overrides follow the same bind-once discipline as
        ``_departure_hook``."""
        Switch = _Switch if _Switch is not None else _resolve_train_symbols()
        node = self.node
        self._own_sw = (
            node if type(node).on_departure is Switch.on_departure else None
        )
        peer = self.peer
        pn = peer.node if peer is not None else None
        B = pn if pn is not None and type(pn).receive is Switch.receive else None
        self._peer_sw = B
        return B

    def _tx_deliver(self, _arg) -> None:
        """The per-frame delivery event: departure bookkeeping on this port,
        ingress at the peer, then re-arm for the next in-flight frame.

        Departure and ingress counters are one block for every hop: a
        stock switch's ``on_departure`` runs inlined, any other node's
        through ``_departure_hook``.  What follows depends on the peer.

        Frame-train fast path (DESIGN.md §2.2): when the hop terminates at
        an untapped switch whose installed router is a static per-flow
        function, the rest of the frame-hop — forwarding decision
        (memoized per same-flow train), shared-buffer admission, PFC
        accounting, ECN draw and egress enqueue — runs as one fused pass
        below, replicating the classic ``Switch.receive`` ->
        ``Port.enqueue`` chain operation for operation (each inlined block
        names its twin — change them together).  Same order, same
        timestamps, same RNG draws: byte-identical observables, pinned by
        tests/property/test_trains.py.  Any split trigger (control frame,
        tap, per-packet LB, host peer) takes the one
        delivery call every tap and fault wrapper hooks,
        ``peer.node.receive(pkt, in_port)`` (DESIGN.md §2.6)."""
        inflight = self._inflight
        pkt = inflight.popleft()[1]
        size = pkt.size
        self.tx_bytes += size
        self.tx_packets += 1
        kind = pkt.kind
        sim = self.sim
        peer = self.peer
        B = self._peer_sw
        if B is False:
            B = self._classify_train_path()
        A = self._own_sw
        if A is not None:
            # Switch.on_departure, inlined — change them together; the
            # reference side of tests/property/test_trains.py calls the
            # method (TestDepartureCopy pins that).  Telemetry is stamped
            # at forward time, so size is what A admitted one hop ago.
            A.buffer_used -= size
            if A._pfc_on and kind < PAUSE:
                in_a = pkt.in_port
                pfc = A._pfc_bytes
                n = pfc[in_a] = pfc[in_a] - size
                if n <= A._xon and A._pfc_paused_up[in_a]:
                    A._pfc_paused_up[in_a] = False
                    A._send_pfc(in_a, RESUME)
        else:
            hook = self._departure_hook
            # census: a node with its own departure hook — tests/property/test_trains.py::TestScenarioEquivalence::test_fncc_snapshot_int_table
            if hook is not None:  # non-switch custom hook: honor it
                hook(pkt, self)
                size = pkt.size  # re-read: a custom hook may mutate the frame
        peer.rx_packets += 1
        peer.rx_bytes += size
        in_p = peer.index
        pkt.in_port = in_p
        if (
            B is not None
            and kind < PAUSE  # control frames always go per-frame
            and B._train_ok  # static LB, untapped (live)
            and B.router is B._lb_router  # router not swapped by hand
        ):
            # ---- fused frame-train hop --------------------------------
            self.train_frames += 1
            # Switch.receive, inlined.
            if kind == ACK:
                pkt.fncc_in_port = in_p
            pkt.hops += 1
            rt = self._rt_cache
            key = pkt.flow_id * 1048576 + pkt.dst  # packed (flow_id, dst)
            out = rt.get(key)
            if out is None:
                if len(rt) >= 4096:
                    # census: a full routing memo — tests/net/test_port.py::TestRoutingMemo::test_a_full_memo_is_cleared_before_it_grows
                    rt.clear()
                out = rt[key] = B._lb_router(B, pkt)
            if out == in_p:
                raise RuntimeError(
                    f"{B.name}: routing loop, {pkt!r} back out port {out}"
                )
            # Switch.receive's forward-time stamp, inlined (the other copy
            # of this block lives there — change them together).
            mode = B._int_mode
            if mode is not _NONE_INT:
                if mode is _HPCC:
                    if kind == DATA:
                        eg = B.ports[out]
                        now = sim.now
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
                        pkt.size += _INT_BYTES
                elif kind == ACK:  # FNCC
                    snap = B._int_snapshot
                    rec = INTRecord.__new__(INTRecord)
                    if snap is not None:
                        s = snap[in_p]
                        rec.bandwidth_gbps = s.bandwidth_gbps
                        rec.ts = s.ts
                        rec.tx_bytes = s.tx_bytes
                        rec.qlen = s.qlen
                    else:
                        p = B.ports[in_p]
                        now = sim.now
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
                    pkt.size += _INT_BYTES
            if kind == ACK:
                ctrl = B.port_controllers[in_p]
                if ctrl is not None:
                    rate = ctrl.fair_rate_gbps
                    if pkt.rocc_rate_gbps is None or rate < pkt.rocc_rate_gbps:
                        pkt.rocc_rate_gbps = rate
            size = pkt.size  # re-read: the stamp may have grown the frame
            # census: a full shared buffer behind the fused hop — tests/integration/test_stress.py::TestLossRecovery::test_no_pfc_small_buffer_recovers_via_go_back_n
            if B.buffer_used + size > B._buffer_bytes:  # shared-buffer admission
                B.drops += 1
                peer.drops += 1
            else:
                B.buffer_used += size
                if B._pfc_on:
                    pfc = B._pfc_bytes
                    n = pfc[in_p] = pfc[in_p] + size
                    if n >= B._xoff and not B._pfc_paused_up[in_p]:
                        B._pfc_paused_up[in_p] = True
                        B._send_pfc(in_p, PAUSE)
                # Port.enqueue (data branches), inlined.
                eg = B.ports[out]
                now = sim.now
                acct_e = eg._acct
                if acct_e and acct_e[0][0] <= now:
                    eg._prune(now)
                if (
                    eg._uncommitted == 0
                    and not eg.paused
                    and (
                        len(acct_e) < eg.commit_lookahead
                        or eg.next_free_ps < eg._inflight[0][0]
                    )
                ):
                    qt = eg._queued_bytes
                    ecn = eg.ecn
                    if qt and ecn is not None and kind == DATA and not pkt.ecn:
                        p = ecn.mark_probability(qt)
                        # census: a queue past the marking threshold on the fused hop — tests/net/test_port.py::TestEcnMarking::test_the_fused_switch_hop_marks_too
                        if p > 0.0 and (p >= 1.0 or eg.ecn_rng.random() < p):
                            pkt.ecn = True
                            eg.ecn_marked += 1
                    nf = eg.next_free_ps
                    start = nf if nf > now else now
                    ser_map = eg._ser
                    ser = ser_map.get(size)
                    if ser is None:
                        ser = ser_map[size] = round(size * 8000 / eg.rate_gbps)
                    nf = start + ser
                    inflight_e = eg._inflight
                    inflight_e.append((nf + eg.prop_delay_ps, pkt))
                    eg.next_free_ps = nf
                    if start > now:
                        acct_e.append((start, size, pkt))
                        qt = eg._queued_bytes = qt + size
                        if qt > eg.max_qlen:
                            eg.max_qlen = qt
                    if eg._del_ev is None:
                        eg._del_ev = sim.schedule_at(
                            inflight_e[0][0], eg._tx_deliver, None, eg.lane
                        )
                else:
                    ecn = eg.ecn
                    if ecn is not None and kind == DATA and not pkt.ecn:
                        p = ecn.mark_probability(eg._queued_bytes)
                        if p > 0.0 and (p >= 1.0 or eg.ecn_rng.random() < p):
                            pkt.ecn = True
                            eg.ecn_marked += 1
                    eg.queue.append(pkt)
                    eg._uncommitted += 1
                    qt = eg._queued_bytes = eg._queued_bytes + size
                    if qt > eg.max_qlen:
                        eg.max_qlen = qt
                    if len(acct_e) < eg.commit_lookahead or not (
                        eg._inflight and eg.next_free_ps >= eg._inflight[0][0]
                    ):
                        eg._commit(now)
        else:
            # ---- classic per-frame path -------------------------------
            peer.node.receive(pkt, in_p)
        if self._uncommitted:
            # Bounded lazy commit: a delivery slot freed, so top the
            # committed window back up from the parked frames.  _commit
            # never schedules here (_del_ev is this very event); the
            # re-arm below picks up whatever became the FIFO head.  The
            # hook/receive calls above cannot re-enter this port: PFC and
            # forwarding act on other ports, and the peer's reactions ride
            # their own events.  The call is skipped while the pending
            # window is still at/above commit_lookahead *and* covered.
            # Deliberate hysteresis: the refill TRIGGER is the tight
            # commit_lookahead while _commit's FILL cap is the widened
            # TRAIN_MAX on train-eligible ports, so a draining window
            # refills in batches of ~(TRAIN_MAX - K) frames once per
            # several deliveries instead of one frame every delivery.  On
            # non-widened ports the skipped call is exactly one that would
            # commit nothing (control frames never park across events, so
            # ctrl is empty here); either way the packet backend's wire
            # schedule is unchanged (any-cap invariant, DESIGN.md §2.1/§2.2).
            topup_now = sim.now
            acct = self._acct
            if acct and acct[0][0] <= topup_now:
                self._prune(topup_now)
            if len(acct) < self.commit_lookahead or not (
                inflight and self.next_free_ps >= inflight[0][0]
            ):
                self._commit(topup_now)
        if inflight:
            # Simulator.schedule_reuse's body, flattened: this runs once per
            # frame-hop, inside our own dispatched event (the documented
            # reuse contract), and per-link arrivals are monotonic so the
            # negative-delay guard is structurally unneeded.
            sim._seq = seq = sim._seq + 1
            ev = self._del_ev
            ev.time = time = inflight[0][0]
            ev.alive = True
            heappush(sim._heap, ((time << 64) | self._lane_key | seq, ev))
        else:
            self._del_ev = None


def connect(
    sim: "Simulator", a: "Node", b: "Node", rate_gbps: float, prop_delay_ps: int
) -> tuple:
    """Wire two nodes with a full-duplex link; returns ``(port_a, port_b)``."""
    pa = a.new_port(rate_gbps, prop_delay_ps)
    pb = b.new_port(rate_gbps, prop_delay_ps)
    pa.peer = pb
    pb.peer = pa
    return pa, pb
