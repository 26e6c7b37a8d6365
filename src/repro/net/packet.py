"""Wire formats.

One :class:`Packet` class covers every frame kind; a ``kind`` tag plus a few
optional fields is far cheaper than a class hierarchy on the hot path
(millions of instances per run).  Field widths follow Fig. 7 of the paper:

* INT record: ``{B (bandwidth), TS (timestamp), txBytes, qLen}`` — one per
  hop, up to ``nHop``.
* ``n_flows`` (N): 16-bit count of concurrent flows written by the FNCC
  receiver (supports 64k QPs, §3.2.3).
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Optional

# Packet kinds --------------------------------------------------------------
# Ordering invariant relied on by the port/switch hot paths: control kinds
# (PFC PAUSE/RESUME) are exactly the values >= PAUSE, so "is this a control
# frame" is a single integer compare.  Add new data kinds BELOW PAUSE.
DATA: int = 0
ACK: int = 1
CNP: int = 2  # DCQCN congestion notification packet
PAUSE: int = 3  # PFC XOFF
RESUME: int = 4  # PFC XON

KIND_NAMES = {DATA: "DATA", ACK: "ACK", CNP: "CNP", PAUSE: "PAUSE", RESUME: "RESUME"}


class INTRecord:
    """One hop's telemetry: Fig. 7's ``{B, TS, txBytes, qLen}``.

    ``tx_bytes`` is the egress port's cumulative transmitted byte counter and
    ``ts`` the simulator time at stamping; the HPCC sender differentiates
    consecutive records to get the link's output rate.
    """

    __slots__ = ("bandwidth_gbps", "ts", "tx_bytes", "qlen")

    def __init__(self, bandwidth_gbps: float, ts: int, tx_bytes: int, qlen: int) -> None:
        self.bandwidth_gbps = bandwidth_gbps
        self.ts = ts
        self.tx_bytes = tx_bytes
        self.qlen = qlen

    def copy(self) -> "INTRecord":
        return INTRecord(self.bandwidth_gbps, self.ts, self.tx_bytes, self.qlen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"INT(B={self.bandwidth_gbps}G ts={self.ts} "
            f"tx={self.tx_bytes} q={self.qlen})"
        )


class Packet:
    """A frame on the wire.

    Size conventions: ``size`` is the full frame length in bytes (what
    occupies link time and buffer space), ``payload`` the transport bytes it
    acknowledges/carries.  ``seq`` is a byte offset; for DATA it is the
    offset of the first payload byte, for ACK it is the *cumulative* next
    expected byte.
    """

    __slots__ = (
        "kind",
        "flow_id",
        "src",
        "dst",
        "seq",
        "size",
        "payload",
        "priority",
        "ecn",
        "ecn_echo",
        "int_records",
        "n_flows",
        "rocc_rate_gbps",
        "last",
        "sent_ts",
        "echo_sent_ts",
        "in_port",
        "fncc_in_port",
        "pause_prio",
        "hops",
        "lb_tag",
        "lb_tail",
    )

    def __init__(
        self,
        kind: int,
        flow_id: int = -1,
        src: int = -1,
        dst: int = -1,
        seq: int = 0,
        size: int = 0,
        payload: int = 0,
        priority: int = 0,
    ) -> None:
        self.reset(kind, flow_id, src, dst, seq, size, payload, priority)

    def reset(
        self,
        kind: int,
        flow_id: int = -1,
        src: int = -1,
        dst: int = -1,
        seq: int = 0,
        size: int = 0,
        payload: int = 0,
        priority: int = 0,
    ) -> None:
        """Re-initialize every field, as if freshly constructed.

        Used by :class:`PacketPool` to recycle frames.  ``int_records`` is
        dropped by reference, never cleared in place: receivers alias the
        list into the ACK they build and HPCC retains it across ACKs.
        """
        self.kind = kind
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.seq = seq
        self.size = size
        self.payload = payload
        self.priority = priority
        self.ecn = False  # CE mark set by RED at a congested egress queue
        self.ecn_echo = False  # receiver -> sender echo on the ACK
        self.int_records: Optional[List[INTRecord]] = None
        self.n_flows = 0  # FNCC receiver's N field (Fig. 7)
        self.rocc_rate_gbps: Optional[float] = None  # RoCC advertised fair rate
        self.last = False  # final DATA packet of the flow / its ACK
        self.sent_ts = 0  # sender timestamp (Timely/Swift RTT measurement)
        self.echo_sent_ts = 0  # sender timestamp echoed back on the ACK
        self.in_port = -1  # ingress port at the node currently holding it
        self.fncc_in_port = -1  # Alg. 1 line 3: ACK input port metadata
        self.pause_prio = 0  # PFC frames: which priority to pause/resume
        self.hops = 0  # switch hops traversed (sanity/TTL checks)
        self.lb_tag = -1  # ConWeave-lite epoch/path tag (-1 = untagged)
        # On DATA: last packet of a rerouted epoch's old path (tail marker).
        # On ACK: explicit retransmit request (NACK) from a reorder-tolerant
        # receiver — survives cumulative-ACK coalescing, unlike inferring
        # "duplicate" from the seq field alone.
        self.lb_tail = False

    # -- helpers -------------------------------------------------------------
    def add_int(self, rec: INTRecord) -> None:
        if self.int_records is None:
            self.int_records = [rec]
        else:
            self.int_records.append(rec)

    @property
    def n_hops(self) -> int:
        return 0 if self.int_records is None else len(self.int_records)

    def is_control(self) -> bool:
        """PFC frames bypass data queues and pause state."""
        return self.kind >= PAUSE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{KIND_NAMES.get(self.kind, self.kind)} flow={self.flow_id} "
            f"seq={self.seq} size={self.size} {self.src}->{self.dst}>"
        )


class PacketPool:
    """A per-host frame free list.

    DATA/ACK/CNP frames are recycled at their terminal sink (the receiver QP
    for DATA, the sender host for ACK/CNP) and re-issued by ``acquire``.
    Ownership rules (DESIGN.md §hot-path): a packet belongs to exactly one
    owner at a time; once ``release`` is called the frame must not be read
    again.  Anything that retains packets past the delivery callback —
    :class:`repro.metrics.tap.PacketTap`, ad-hoc test spies — must disable
    the pool on the hosts it observes (``pool.enabled = False``), which
    turns ``release`` into a no-op and restores allocate-per-frame
    semantics.

    Disabled is the default for bare :class:`~repro.net.host.Host`
    construction; :class:`~repro.topo.base.Topology` enables pooling on the
    hosts it builds, so experiments get the fast path and unit fixtures keep
    immortal packets.
    """

    __slots__ = (
        "_free",
        "enabled",
        "max_free",
        "allocated",
        "recycled",
        "_tap_pauses",
        "_was_enabled",
    )

    def __init__(self, enabled: bool = False, max_free: int = 8192) -> None:
        self._free: List[Packet] = []
        self.enabled = enabled
        self.max_free = max_free
        self.allocated = 0  # pool misses (fresh Packet constructions)
        self.recycled = 0  # frames handed back via release()
        self._tap_pauses = 0  # observers currently holding the pool off
        self._was_enabled = enabled

    # -- observer support -------------------------------------------------------
    def pause_recycling(self) -> None:
        """Observer (PacketTap & co.) wants immortal frames.  Refcounted:
        the pool re-enables only when the *last* observer resumes."""
        if self._tap_pauses == 0:
            self._was_enabled = self.enabled
        self._tap_pauses += 1
        self.enabled = False

    def resume_recycling(self) -> None:
        if self._tap_pauses > 0:
            self._tap_pauses -= 1
            if self._tap_pauses == 0 and self._was_enabled:
                self.enabled = True

    def acquire(
        self,
        kind: int,
        flow_id: int = -1,
        src: int = -1,
        dst: int = -1,
        seq: int = 0,
        size: int = 0,
        payload: int = 0,
        priority: int = 0,
    ) -> Packet:
        free = self._free
        if free:
            pkt = free.pop()
            # Packet.reset's body, flattened (keep the field list in sync):
            # one Python call per recycled frame is real money at this rate.
            pkt.kind = kind
            pkt.flow_id = flow_id
            pkt.src = src
            pkt.dst = dst
            pkt.seq = seq
            pkt.size = size
            pkt.payload = payload
            pkt.priority = priority
            pkt.ecn = False
            pkt.ecn_echo = False
            pkt.int_records = None
            pkt.n_flows = 0
            pkt.rocc_rate_gbps = None
            pkt.last = False
            pkt.sent_ts = 0
            pkt.echo_sent_ts = 0
            pkt.in_port = -1
            pkt.fncc_in_port = -1
            pkt.pause_prio = 0
            pkt.hops = 0
            pkt.lb_tag = -1
            pkt.lb_tail = False
            return pkt
        self.allocated += 1
        return Packet(kind, flow_id, src, dst, seq, size, payload, priority)

    def release(self, pkt: Packet) -> None:
        """Hand a dead frame back for reuse (no-op when disabled)."""
        if self.enabled:
            free = self._free
            if len(free) < self.max_free:
                pkt.int_records = None  # drop the aliased telemetry list
                self.recycled += 1
                free.append(pkt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return (
            f"<PacketPool {state} free={len(self._free)} "
            f"alloc={self.allocated} recycled={self.recycled}>"
        )


# -- use-after-release sanitizer (DESIGN.md §9) ------------------------------
#
# The pool's ownership rule — "once release() is called the frame must not
# be read again" — is invisible when violated: the stale reader sees either
# the old fields (wrong data, silently) or, worse, the fields of whatever
# flow the frame was recycled into.  The sanitizer makes the violation loud.
# ``SanitizingPacketPool`` swaps a released frame's class to
# ``_PoisonedPacket``, whose every attribute access raises
# :class:`UseAfterReleaseError` carrying the frame's allocation and release
# stacks; ``acquire`` swaps the class back before reuse.  Opt-in via
# ``Simulator(sanitize="pool")`` / ``REPRO_SANITIZE=pool`` (hosts pick the
# pool class off ``sim.sanitize``); the production ``PacketPool`` is
# untouched.

#: Frames walked per captured stack.  Stored as raw (code, lineno) pairs and
#: formatted only when an error actually fires, keeping capture cheap enough
#: to leave the sanitizer on through a long repro session (DESIGN.md §9.2).
_STACK_DEPTH = 8

#: Default sampling stride for :class:`SanitizingPacketPool` — one tracked
#: lifecycle per this many acquires (override per pool via ``stride=`` or
#: globally via ``REPRO_POOL_STRIDE``; ``1`` = full poisoning).
_DEFAULT_STRIDE = 64


def _capture_stack(skip: int) -> tuple:
    """A cheap partial stack: ((code, lineno), ...) innermost first."""
    try:
        f = sys._getframe(skip)
    except ValueError:  # pragma: no cover - shallow call stacks
        return ()
    out = []
    depth = 0
    while f is not None and depth < _STACK_DEPTH:
        out.append((f.f_code, f.f_lineno))
        f = f.f_back
        depth += 1
    return tuple(out)


def _format_stack(stack: Optional[tuple]) -> str:
    if not stack:
        return "    <not recorded>"
    return "\n".join(
        f"    {code.co_filename}:{lineno} in {code.co_name}"
        for code, lineno in stack
    )


class UseAfterReleaseError(RuntimeError):
    """A pooled Packet was touched after ``release()`` (DESIGN.md §9)."""


class _PoisonedPacket(Packet):
    """What a released frame *is* while it sits on a sanitizing free list.

    Any attribute read or write raises with the frame's allocation and
    release stacks.  ``__slots__ = ()`` keeps the memory layout identical to
    :class:`Packet`, which is what makes the ``__class__`` swap legal.  The
    two stacks ride in the frame's own ``int_records`` slot (dead while
    released, reset to ``None`` on revival) — poisoning needs no global
    registry, so stacks die with their frame instead of leaking.
    """

    __slots__ = ()

    def _uar(self, verb: str, name: str) -> UseAfterReleaseError:
        alloc, released = object.__getattribute__(self, "int_records") or (
            None,
            None,
        )
        return UseAfterReleaseError(
            f"{verb} of {name!r} on a released pooled Packet "
            f"(ownership rule: a frame must not be touched after release(); "
            f"see DESIGN.md §9)\n"
            f"  allocated at:\n{_format_stack(alloc)}\n"
            f"  released at:\n{_format_stack(released)}"
        )

    def __getattribute__(self, name: str):
        if name in ("_uar", "__class__", "__hash__"):
            return object.__getattribute__(self, name)
        raise object.__getattribute__(self, "_uar")("read", name)

    def __setattr__(self, name: str, value) -> None:
        raise object.__getattribute__(self, "_uar")("write", name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<poisoned (released) Packet>"


class SanitizingPacketPool(PacketPool):
    """Drop-in :class:`PacketPool` with use-after-release detection.

    Tracking is **sampled** (GWP-ASan style): one in every ``stride``
    lifecycles is tracked — its allocation stack captured on ``acquire``,
    the frame class-swap poisoned on ``release`` — and the first lifecycle
    is always tracked so a systematically-broken call site fails on its
    first packet.  Sampling is what keeps the debug mode inside the CI
    ``--ab-sanitize`` overhead gate: full per-frame poisoning costs ~2x a
    pool cycle in CPython, ``stride`` amortizes that to noise while a
    *recurring* use-after-release site still gets caught after O(stride)
    packets.  ``stride=1`` (or ``REPRO_POOL_STRIDE=1``) restores full
    poisoning — what the sanitizer tests and targeted repro sessions use.

    A tracked *live* frame stays a plain :class:`Packet` — tracking rides
    the ``_alloc_sites`` dict, not the object's class, so the hot path only
    ever sees one packet type and CPython's specializing interpreter keeps
    its attribute caches monomorphic (a tracked subclass measurably slowed
    *unrelated* hot functions by deoptimizing shared call sites).
    """

    __slots__ = ("stride", "_left", "_alloc_sites")

    def __init__(
        self,
        enabled: bool = False,
        max_free: int = 8192,
        stride: Optional[int] = None,
    ) -> None:
        PacketPool.__init__(self, enabled, max_free)
        if stride is None:
            stride = int(os.environ.get("REPRO_POOL_STRIDE", "") or _DEFAULT_STRIDE)
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.stride = stride
        self._left = 1  # first lifecycle always tracked
        # id(live tracked frame) -> allocation stack, moved to _POISON on
        # release.  Entries are popped on release (tracked or dropped), so
        # a stale id can never alias a recycled frame.
        self._alloc_sites: Dict[int, tuple] = {}

    def acquire(
        self,
        kind: int,
        flow_id: int = -1,
        src: int = -1,
        dst: int = -1,
        seq: int = 0,
        size: int = 0,
        payload: int = 0,
        priority: int = 0,
    ) -> Packet:
        free = self._free
        if free:
            pkt = free.pop()
            if type(pkt) is _PoisonedPacket:
                # Revive: restore the real class, then reset normally (which
                # drops the stashed stacks with int_records).  Must use
                # object.__setattr__ — the poisoned class's own __setattr__
                # would (correctly) refuse.
                object.__setattr__(pkt, "__class__", Packet)
            pkt.reset(kind, flow_id, src, dst, seq, size, payload, priority)
        else:
            self.allocated += 1
            pkt = Packet(kind, flow_id, src, dst, seq, size, payload, priority)
        left = self._left - 1
        if left:
            self._left = left
        else:
            self._left = self.stride
            if self.enabled:
                self._alloc_sites[id(pkt)] = _capture_stack(2)
        return pkt

    def release(self, pkt: Packet) -> None:
        if type(pkt) is _PoisonedPacket:
            alloc, released = object.__getattribute__(pkt, "int_records") or (
                None,
                None,
            )
            raise UseAfterReleaseError(
                "double release() of a pooled Packet\n"
                f"  allocated at:\n{_format_stack(alloc)}\n"
                f"  first released at:\n{_format_stack(released)}"
            )
        if not self.enabled:
            return
        # Pop *before* the free-list capacity check: if the frame is dropped
        # to the GC its tracking entry must go too (a later frame could
        # reuse the id and inherit a foreign allocation stack).  For the
        # (stride-1)/stride untracked lifecycles this is one dict miss.
        sites = self._alloc_sites
        alloc = sites.pop(id(pkt), None) if sites else None
        free = self._free
        if len(free) < self.max_free:
            self.recycled += 1
            if alloc is None:
                pkt.int_records = None
            else:
                # Stash both stacks in the dead frame's int_records slot;
                # revival's reset() replaces it with None.
                pkt.int_records = (alloc, _capture_stack(2))
                object.__setattr__(pkt, "__class__", _PoisonedPacket)
            free.append(pkt)
