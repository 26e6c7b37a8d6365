"""Boundary ports: the local half of a cut link (DESIGN.md §11).

Each shard builds the *complete* topology, then rewires every cut link's
local port to a stub peer.  The local port stays a stock
:class:`~repro.net.port.Port` — its wire arithmetic, PFC pause state,
bounded-commit machinery and tx counters keep running untouched — while
the stub absorbs its deliveries (the remote shard simulates the real
receive from the injected copy).  The stub's node class is not the stock
``Switch``, so :meth:`Port._classify_train_path` classifies the port as
train-ineligible and the fused hop pipeline auto-disables across the
cut; every boundary frame takes the classic per-frame path.

**Export** walks the port's in-flight FIFO at each barrier and emits
frames whose serialization finished inside the closing window
(``watermark < finish <= horizon``).  Such frames are committed — their
wire slot started at or before ``now``, so a PFC XOFF can no longer
uncommit them (``_uncommit_pending`` only evicts ``start > now``) — and
their arrival ``finish + prop`` is strictly beyond the barrier (the
horizon rule in :func:`repro.shard.runtime.run_sharded` sees to that), so
the receiving shard can still schedule them.  The sender's own delivery
event fires later at the exact serial time, running ``on_departure``
(buffer release, PFC XON) against the local switch before the frame dies
in the stub.

**Injection** replays :meth:`Port._tx_deliver`'s classic peer-side
delivery on the real local port: rx counters, ``in_port``, then
``node.receive``.  PFC PAUSE/RESUME frames cross the cut this way with
no special casing — they ride the in-flight FIFO like any frame and hit
the receiving switch's control branch at the serial timestamp.
"""

from __future__ import annotations

from typing import Dict, List

from repro.net.packet import Packet
from repro.shard.messages import decode_frame, encode_frame
from repro.shard.partition import Cut, PartitionPlan
from repro.topo.base import Topology


class _StubNode:
    """Absorbs deliveries on the local side of a cut.

    Not a :class:`~repro.net.switch.Switch` subclass on purpose: the
    train classifier compares ``type(peer.node).receive`` against the
    stock ``Switch.receive``, so this class's distinct method is what
    turns train fusion off on boundary ports.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def receive(self, pkt: Packet, in_port: int) -> None:
        # The frame's real receive runs on the remote shard from the
        # barrier-exported copy; this copy is dead.
        return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StubNode {self.name}>"


class _StubPort:
    """The minimal peer surface :meth:`Port._tx_deliver` touches."""

    __slots__ = ("node", "index", "rx_packets", "rx_bytes")

    def __init__(self, name: str, index: int) -> None:
        self.node = _StubNode(name)
        self.index = index
        self.rx_packets = 0
        self.rx_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StubPort {self.node.name}.{self.index}>"


class Boundary:
    """One shard's half of one cut link: export + injection."""

    __slots__ = (
        "cut", "port", "remote", "inject_lane", "watermark", "injected", "exported"
    )

    def __init__(self, cut: Cut, port, remote: int, inject_lane: int = 0) -> None:
        self.cut = cut
        self.port = port
        # The shard that owns the far end: where exported frames go.
        self.remote = remote
        # The remote transmitting port's tie-break lane: an injection must
        # pop at exactly the heap rank the serial delivery event holds, so
        # same-instant ordering against local events matches the serial
        # engine (DESIGN.md §4.1/§11).
        self.inject_lane = inject_lane
        self.watermark = 0
        self.injected = 0
        self.exported = 0

    def export(self, horizon: int) -> List[tuple]:
        """Frames whose serialization finished in ``(watermark, horizon]``,
        as ``(arrival_ps, cut_index, frame_tuple)`` messages in wire
        order.  The in-flight FIFO is bounded by the commit window, so
        the walk is O(window), not O(backlog)."""
        prop = self.port.prop_delay_ps
        wm = self.watermark
        index = self.cut.index
        out = []
        for arrival, pkt in self.port._inflight:
            finish = arrival - prop
            if wm < finish <= horizon:
                out.append((arrival, index, encode_frame(pkt)))
        self.watermark = horizon
        self.exported += len(out)
        return out

    def inject(self, frame: tuple) -> None:
        """Deliver a remote frame into the local fabric — the peer-side
        lines of :meth:`Port._tx_deliver`'s classic path, on the real
        port."""
        pkt = decode_frame(frame)
        port = self.port
        port.rx_packets += 1
        port.rx_bytes += pkt.size
        pkt.in_port = port.index
        self.injected += 1
        port.node.receive(pkt, port.index)

    def in_flight(self, horizon: int) -> int:
        """Frames still on the wire past ``horizon`` — the boundary
        residue a merged quiescence audit must account for."""
        prop = self.port.prop_delay_ps
        return sum(1 for arrival, _ in self.port._inflight if arrival - prop > horizon)


def rewire_boundaries(
    topo: Topology, plan: PartitionPlan, shard_id: int
) -> Dict[int, Boundary]:
    """Stub out every cut link's local port; return cut index ->
    :class:`Boundary` for the cuts touching this shard, in cut-index
    order (the order a shard exports in)."""
    node_by_name = {h.name: h for h in topo.hosts}
    node_by_name.update({sw.name: sw for sw in topo.switches})
    boundaries: Dict[int, Boundary] = {}
    for cut in plan.cuts:
        if shard_id == cut.owner_a:
            local, remote, remote_shard = cut.a, cut.b, cut.owner_b
        elif shard_id == cut.owner_b:
            local, remote, remote_shard = cut.b, cut.a, cut.owner_a
        else:
            continue
        ports = topo.adj[cut.a][cut.b]["ports"]
        port = node_by_name[local].ports[ports[local]]
        remote_lane = node_by_name[remote].ports[ports[remote]].lane
        # The local port keeps transmitting on the serial schedule; its
        # deliveries land in the stub instead of the remote switch.  The
        # stub's index mirrors the remote port so pkt.in_port matches
        # what a local delivery would have set (the value is dead — the
        # stub discards — but keeps flight-dump output comprehensible).
        port.peer = _StubPort(f"stub:{remote}", ports[remote])
        boundaries[cut.index] = Boundary(cut, port, remote_shard, remote_lane)
    return boundaries
