"""The sender QP — the Reaction Point (RP) of the paper.

The QP packetizes the message into MTU-sized frames, paces them at the CC
module's rate ``R = W/T`` and (for window-based CCs) caps in-flight bytes at
``W``.  Reliability is go-back-N: out-of-order arrivals trigger duplicate
cumulative ACKs, and a retransmission timeout rolls ``snd_nxt`` back to
``snd_una``.  On a PFC-lossless fabric the timeout should never fire; tests
exercise it by disabling PFC and shrinking switch buffers.

With a reorder-tolerant receiver (``TransportConfig.reorder_window_bytes``)
duplicate ACKs become *rare and meaningful* — the receiver absorbs ordinary
multipath reordering silently — so ``dupack_rewind`` additionally arms a
fast go-back-N rewind on consecutive duplicate ACKs, rate-limited to one
per base RTT.  ``repro.lb.install_lb`` enables it alongside the reorder
window; the strict-order default keeps timeout-only recovery.

Frame trains (DESIGN.md §2.2): a window burst paced at a steady rate puts
back-to-back same-flow frames on the wire — exactly the trains the port
layer's fused delivery pipeline rides downstream.  The sender contributes
the formation side only (the pacing-gap memo keeps burst emission cheap
without moving a single timestamp); delivery and ACK processing stay
strictly per-frame, so ACK clocking, CC window updates and retransmission
semantics are the same on either hop path.

The host hop (DESIGN.md §2.6): the per-frame work is two bodies, not a
chain of helpers.  ``on_ack`` runs reliability, then the CC module's
``on_ack`` (an attribute call — obs wraps it per instance), then
``_maybe_send``, whose loop holds the window test, the pacing test and
frame construction inline.  ``_pace_fire`` is the pacing deadline's
callback; it clears the handle and re-enters ``_maybe_send``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.packet import DATA, Packet
from repro.sim.timer import Timer
from repro.units import DEFAULT_MTU

if TYPE_CHECKING:  # pragma: no cover
    from repro.cc.base import CongestionControl
    from repro.net.host import Host
    from repro.transport.flow import Flow

#: Ethernet + IPv4 + UDP + IB BTH + iCRC + FCS overhead per frame.
HEADER_BYTES = 48

#: Jitterless exponential RTO backoff: the effective timeout doubles per
#: consecutive timeout, capped at ``initial << RETX_BACKOFF_CAP`` (64x).
#: No randomized jitter — deterministic replay is the repo's contract;
#: per-flow start offsets already desynchronize retransmissions.
RETX_BACKOFF_CAP = 6
#: Consecutive-timeout budget before a flow degrades to the flow-failed
#: terminal state; 0 = retransmit forever (the seed's behavior).
RETX_MAX_TIMEOUTS = 0


class TransportConfig:
    """Knobs shared by every QP on a host."""

    __slots__ = (
        "mtu",
        "header_bytes",
        "ack_every",
        "retx_timeout_ps",
        "retx_backoff_cap",
        "retx_max_timeouts",
        "window_limited",
        "reorder_window_bytes",
        "reorder_max_pkts",
        "dupack_rewind",
    )

    def __init__(
        self,
        mtu: int = DEFAULT_MTU,
        header_bytes: int = HEADER_BYTES,
        ack_every: int = 1,
        retx_timeout_ps: int = 0,  # 0 = disabled (lossless fabric default)
        retx_backoff_cap: int = RETX_BACKOFF_CAP,
        retx_max_timeouts: int = RETX_MAX_TIMEOUTS,
        window_limited: bool = True,
        reorder_window_bytes: int = 0,  # 0 = strict in-order (dup-ACK on OOO)
        reorder_max_pkts: int = 512,
        dupack_rewind: int = 0,  # 0 = disabled (timeout-only recovery)
    ) -> None:
        if mtu <= header_bytes:
            raise ValueError("MTU must exceed header size")
        if ack_every < 1:
            raise ValueError("ack_every must be >= 1")
        if reorder_window_bytes < 0 or reorder_max_pkts < 1:
            raise ValueError("invalid reorder window")
        if dupack_rewind < 0:
            raise ValueError("dupack_rewind must be >= 0")
        if retx_backoff_cap < 0 or retx_max_timeouts < 0:
            raise ValueError("retx backoff/max-timeouts must be >= 0")
        self.mtu = mtu
        self.header_bytes = header_bytes
        self.ack_every = ack_every
        self.retx_timeout_ps = retx_timeout_ps
        # Graceful degradation (DESIGN.md §10): exponential, jitterless
        # backoff of consecutive timeouts, and an optional budget after
        # which the flow reaches the flow-failed terminal state instead of
        # retransmitting into a partition forever.
        self.retx_backoff_cap = retx_backoff_cap
        self.retx_max_timeouts = retx_max_timeouts
        self.window_limited = window_limited
        # Receiver-side out-of-order tolerance: how far past the next
        # expected byte arrivals may be buffered before being dropped with a
        # duplicate ACK.  Reordering LB strategies (spray/flowlet/conweave)
        # require a nonzero window; repro.lb.install_lb enables it.
        self.reorder_window_bytes = reorder_window_bytes
        self.reorder_max_pkts = reorder_max_pkts
        # Sender-side fast recovery: after this many consecutive duplicate
        # cumulative ACKs, go-back-N rewinds without waiting for the retx
        # timeout (rate-limited to one rewind per base RTT).  Under a
        # reorder-tolerant receiver dup ACKs are emitted only for genuine
        # anomalies (window overflow, tail-drained loss hints, stale
        # retransmissions), so install_lb arms this at 1; the strict-order
        # default keeps the seed's timeout-only behavior.
        self.dupack_rewind = dupack_rewind

    @property
    def max_payload(self) -> int:
        return self.mtu - self.header_bytes


class SenderQP:
    """One flow's sending state machine."""

    __slots__ = (
        "sim",
        "host",
        "flow",
        "cc",
        "config",
        "base_rtt_ps",
        "line_rate_gbps",
        "window",
        "rate_gbps",
        "snd_nxt",
        "snd_una",
        "next_tx_ps",
        "finished",
        "_pace_ev",
        "_retx_timer",
        "_pace_armed_for",
        "_window_limited",
        "_max_payload",
        "_header_bytes",
        "_flow_size",
        "_retx_ps",
        "_gap_rate",
        "_gap_size",
        "_gap",
        "_nic",
        "on_complete",
        "acks_received",
        "timeouts",
        "srtt_ps",
        "_consec_timeouts",
        "failed",
        "start_ps",
        "_dupacks",
        "_dupack_rewind",
        "_last_rewind_ps",
        "fast_rewinds",
    )

    def __init__(
        self,
        host: "Host",
        flow: "Flow",
        cc: "CongestionControl",
        config: TransportConfig,
        base_rtt_ps: int,
        line_rate_gbps: float,
    ) -> None:
        self.sim = host.sim
        self.host = host
        self.flow = flow
        self.cc = cc
        self.config = config
        self.base_rtt_ps = base_rtt_ps
        self.line_rate_gbps = line_rate_gbps
        # CC-owned control variables; CC modules mutate these.
        self.window: float = float(flow.size_bytes)
        self.rate_gbps: float = line_rate_gbps
        self.snd_nxt = 0
        self.snd_una = 0
        self.next_tx_ps = 0
        self.finished = False
        # Hot-path caches of per-flow constants (one attribute load instead
        # of a config chain per frame).
        self._window_limited = config.window_limited
        self._max_payload = config.max_payload
        self._header_bytes = config.header_bytes
        self._flow_size = flow.size_bytes
        self._retx_ps = config.retx_timeout_ps
        # Pacing-gap memo: the CC rate changes at ACK granularity while
        # frames are emitted at wire granularity, so the (rate, size) pair
        # repeats for every frame of a burst — the wire trains the port
        # layer fuses downstream.  A hit returns the identical rounded gap.
        self._gap_rate = -1.0
        self._gap_size = -1
        self._gap = 0
        # Pacing uses a raw engine event (one per emitted frame in steady
        # state) instead of the Timer wrapper; _pace_armed_for carries the
        # deadline the live event is armed for, None when disarmed.
        self._pace_ev = None
        self._nic = None  # bound lazily: hosts may be wired after flow setup
        self._retx_timer = Timer(self.sim, self._retx_fire, host.lane)
        self._pace_armed_for: Optional[int] = None
        self.on_complete: Optional[Callable[["SenderQP"], None]] = None
        self.acks_received = 0
        self.timeouts = 0
        # Smoothed RTT (EWMA, gain 1/8) from ACK-echoed send timestamps;
        # 0 until the first sample.  Drives retransmission-timer re-arms.
        self.srtt_ps = 0
        self._consec_timeouts = 0
        # Flow-failed terminal state: retx_max_timeouts exhausted.  A
        # failed flow is also ``finished`` (teardown/sinks run once); the
        # flag distinguishes degradation from completion.
        self.failed = False
        self.start_ps = flow.start_ps
        # Duplicate-ACK fast rewind (see TransportConfig.dupack_rewind).
        self._dupacks = 0
        self._dupack_rewind = config.dupack_rewind
        self._last_rewind_ps = -(1 << 62)
        self.fast_rewinds = 0

    # -- lifecycle -----------------------------------------------------------------
    def start(self) -> None:
        """Called by the host at the flow's start time."""
        self.cc.on_flow_start(self)
        if self.config.retx_timeout_ps > 0:
            self._retx_timer.start(self.config.retx_timeout_ps)
        self._maybe_send()

    # -- transmit path ---------------------------------------------------------------
    def _maybe_send(self) -> None:
        """Emit as many frames as pacing + window currently allow."""
        if self.finished:
            return
        flow_size = self._flow_size
        window_limited = self._window_limited
        sim = self.sim
        snd_nxt = self.snd_nxt
        while snd_nxt < flow_size:
            if window_limited and snd_nxt - self.snd_una >= self.window:
                ev = self._pace_ev
                if ev is not None:
                    # fncc-lint: allow[H301] Event.cancel() inlined on a live handle this QP owns; per-ACK pacing path
                    ev.alive = False
                    self._pace_ev = None
                self._pace_armed_for = None
                return  # ACK-clocked: on_ack re-enters
            now = sim.now
            next_tx = self.next_tx_ps
            if next_tx > now:
                if self._pace_armed_for != next_tx:
                    ev = self._pace_ev
                    if ev is not None:
                        # fncc-lint: allow[H301] Event.cancel() inlined on a live handle this QP owns; re-arm path
                        ev.alive = False
                    self._pace_ev = sim.schedule(
                        next_tx - now, self._pace_fire, None, self.host.lane
                    )
                    self._pace_armed_for = next_tx
                return
            # Emit one frame.
            flow = self.flow
            remaining = flow_size - snd_nxt
            max_payload = self._max_payload
            payload = max_payload if remaining > max_payload else remaining
            size = payload + self._header_bytes
            # Positional (kind, flow_id, src, dst, seq, size, payload):
            # keyword passing costs real time at this call rate.
            pkt = Packet(
                DATA, flow.flow_id, flow.src, flow.dst, snd_nxt, size, payload
            )
            pkt.sent_ts = now
            pkt.last = payload >= remaining
            self.snd_nxt = snd_nxt = snd_nxt + payload
            # Pace at R: the inter-frame gap is the frame's wire time at R.
            rate = self.rate_gbps
            if rate > 0:
                if rate == self._gap_rate and size == self._gap_size:
                    gap = self._gap  # burst fast path: same rate, same size
                else:
                    # Inline serialization_ps: same expression, same rounding.
                    gap = round(size * 8000 / rate)
                    self._gap_rate = rate
                    self._gap_size = size
                    self._gap = gap
            else:  # fully throttled; retry in one base RTT
                gap = self.base_rtt_ps
            self.next_tx_ps = (next_tx if next_tx > now else now) + gap
            nic = self._nic
            if nic is None:
                nic = self._nic = self.host.ports[0]
            nic.enqueue(pkt)  # Host.transmit, inlined

    def _pace_fire(self, _arg) -> None:
        self._pace_ev = None
        self._pace_armed_for = None
        self._maybe_send()

    # -- receive path ---------------------------------------------------------------
    def on_ack(self, ack: Packet) -> None:
        """Process a cumulative ACK; the sender host is its terminal sink."""
        if self.finished:
            return
        self.acks_received += 1
        seq = ack.seq
        advanced = seq > self.snd_una
        if advanced:
            self.snd_una = seq
            self._dupacks = 0
            if self._retx_ps > 0:
                # Track the current RTT from the echoed send timestamp
                # (<= 0: gratuitous ACK, no sample — same convention as
                # Timely/Swift) and re-arm from it: max(initial RTO,
                # 2*srtt), so a congested path widens the timer instead
                # of firing spurious go-back-N rewinds at the
                # connection-initial RTO.  Progress resets the backoff.
                ts = ack.echo_sent_ts
                if ts > 0:
                    sample = self.sim.now - ts
                    srtt = self.srtt_ps
                    self.srtt_ps = sample if srtt == 0 else (7 * srtt + sample) >> 3
                self._consec_timeouts = 0
                self._retx_timer.start(self._rto())
        rewind = self._dupack_rewind
        if rewind:
            if advanced and seq > self.snd_nxt:
                # A rewind retransmitted a hole whose following bytes were
                # already buffered at the receiver: the cumulative ACK has
                # jumped past snd_nxt.  Snap forward — re-sending acked
                # bytes would only draw stale-frame dup ACKs.
                self.snd_nxt = seq
            if self.snd_nxt > self.snd_una:
                # Fast recovery.  A NACK-flagged ACK (receiver saw a genuine
                # hole: overflow drop, stale frame, tail-drained loss hint)
                # is an explicit retransmit request — it counts even when
                # ACK coalescing made its seq advance snd_una.  A plain
                # duplicate cumulative ACK counts via the classic
                # seq == snd_una test.
                if ack.lb_tail:
                    self._dupacks = rewind
                elif not advanced and seq == self.snd_una:
                    self._dupacks += 1
                if self._dupacks >= rewind:
                    # Go-back-N without waiting for the timeout, at most
                    # once per base RTT (one rewind's worth of
                    # retransmissions can itself echo stale-frame NACKs).
                    now = self.sim.now
                    if now - self._last_rewind_ps >= self.base_rtt_ps:
                        self._last_rewind_ps = now
                        self.fast_rewinds += 1
                        self.snd_nxt = self.snd_una
                        self.next_tx_ps = now
                    self._dupacks = 0
        self.cc.on_ack(self, ack)
        if self.snd_una >= self._flow_size:
            self._finish()
            return
        self._maybe_send()

    def on_cnp(self) -> None:
        if not self.finished:
            self.cc.on_cnp(self)

    def _rto(self) -> int:
        """Effective retransmission timeout: the larger of the configured
        initial RTO and twice the smoothed RTT, left-shifted once per
        consecutive timeout up to ``retx_backoff_cap`` (jitterless
        exponential backoff — deterministic replay)."""
        rto = self._retx_ps
        est = self.srtt_ps << 1
        if est > rto:
            rto = est
        n = self._consec_timeouts
        cap = self.config.retx_backoff_cap
        return rto << (n if n < cap else cap)

    def _retx_fire(self, _arg) -> None:
        if self.finished:
            return
        self.timeouts += 1
        self._consec_timeouts += 1
        limit = self.config.retx_max_timeouts
        if limit and self._consec_timeouts >= limit:
            # Graceful degradation: the path is (for this flow) a
            # partition.  Reach the flow-failed terminal state instead of
            # backing off forever — experiments then count the flow as
            # resolved (failed), never hung.
            self._fail()
            return
        # Go-back-N: rewind to the last cumulatively acknowledged byte.
        self.snd_nxt = self.snd_una
        self.next_tx_ps = self.sim.now
        self.cc.on_timeout(self)
        self._retx_timer.start(self._rto())
        self._maybe_send()

    def _fail(self) -> None:
        self.failed = True
        self._finish()

    def abort(self) -> None:
        """Stop sending immediately (used by long-lived-flow experiments
        like Fig. 13e where flows exit on a schedule rather than by size)."""
        if not self.finished:
            self._finish()

    def _finish(self) -> None:
        self.finished = True
        ev = self._pace_ev
        if ev is not None:
            # fncc-lint: allow[H301] Event.cancel() inlined on a live handle this QP owns; flow teardown
            ev.alive = False
            self._pace_ev = None
        self._retx_timer.cancel()
        self.cc.on_flow_finish(self)
        if self.on_complete is not None:
            self.on_complete(self)
