"""PacketTap — non-invasive packet capture at a node.

Wraps a node's ``receive`` to record (time, packet) pairs matching a
filter.  The hot path pays nothing unless a tap is installed (the wrapper
exists only on tapped nodes).  This is the debugging/measurement tool the
test-suite's ad-hoc spies grew into.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.net.node import Node
from repro.net.packet import KIND_NAMES, Packet

Predicate = Callable[[Packet], bool]


class PacketTap:
    """Records packets arriving at one node.

    >>> tap = PacketTap(host, kind=ACK, flow_id=3)
    >>> ... run ...
    >>> tap.count, tap.packets[0]

    A record holds the frame itself, not a copy: identity fields (kind,
    flow, seq) stay as captured, while fields the fabric writes further
    downstream (``hops``, ``in_port``, ``ecn``, ``int_records``) read their
    final values.
    """

    def __init__(
        self,
        node: Node,
        kind: Optional[int] = None,
        flow_id: Optional[int] = None,
        predicate: Optional[Predicate] = None,
        max_packets: int = 1_000_000,
    ) -> None:
        self.node = node
        self.kind = kind
        self.flow_id = flow_id
        self.predicate = predicate
        self.max_packets = max_packets
        self.records: List[Tuple[int, Packet]] = []
        self.dropped = 0  # records beyond max_packets
        self._orig = node.receive
        self._installed = True
        # Tapping a switch forces the frame-train fast path (DESIGN.md
        # §2.2) back to per-frame delivery through this node, so the spy
        # observes every frame individually: clear the train pass-through
        # gate for the tap's lifetime.  (Hosts need nothing — trains never
        # fuse into hosts.)  Ad-hoc spies that wrap a *switch's* receive
        # without going through PacketTap must do the same.
        self._gated_switch = hasattr(node, "_train_ok")
        if self._gated_switch:
            node._train_ok = False
        # Remember whether ``receive`` was already an instance attribute
        # (a nested tap / earlier spy): uninstall must delete our wrapper
        # rather than assign the bound original back, or the instance dict
        # would keep shadowing the class method forever (and keep the
        # train gate closed).
        self._had_instance_receive = "receive" in node.__dict__
        node.receive = self._spy  # type: ignore[method-assign]

    def _matches(self, pkt: Packet) -> bool:
        if self.kind is not None and pkt.kind != self.kind:
            return False
        if self.flow_id is not None and pkt.flow_id != self.flow_id:
            return False
        if self.predicate is not None and not self.predicate(pkt):
            return False
        return True

    def _spy(self, pkt: Packet, in_port: int) -> None:
        if self._matches(pkt):
            if len(self.records) < self.max_packets:
                self.records.append((self.node.sim.now, pkt))
            else:
                self.dropped += 1
        self._orig(pkt, in_port)

    def uninstall(self) -> None:
        """Restore the node's original receive method (and the train
        pass-through gate on switches)."""
        if self._installed:
            node = self.node
            if self._had_instance_receive:
                node.receive = self._orig  # type: ignore[method-assign]
            else:
                del node.receive  # pristine: the class method resurfaces
            if self._gated_switch:
                # Recompute rather than restore a snapshot: the strategy
                # may have been reinstalled while the tap was up (a
                # snapshot would clobber the newer gate value), and with
                # nested taps the outermost uninstall re-derives the truth
                # (an inner wrapper still in __dict__ keeps the gate
                # closed).  Single definition: Switch._recompute_train_ok.
                node._recompute_train_ok()
            self._installed = False

    # -- conveniences -----------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def packets(self) -> List[Packet]:
        return [p for _, p in self.records]

    @property
    def times(self) -> List[int]:
        return [t for t, _ in self.records]

    def inter_arrival_ps(self) -> List[int]:
        ts = self.times
        return [b - a for a, b in zip(ts, ts[1:])]

    def summary(self) -> str:
        by_kind: dict = {}
        for _, p in self.records:
            by_kind[p.kind] = by_kind.get(p.kind, 0) + 1
        parts = ", ".join(
            f"{KIND_NAMES.get(k, k)}={n}" for k, n in sorted(by_kind.items())
        )
        return f"<PacketTap {self.node.name}: {self.count} pkts ({parts})>"
