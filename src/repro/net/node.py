"""Base class shared by switches and hosts."""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.net.packet import Packet
from repro.net.port import Port

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Node:
    """A network element owning a set of ports.

    Subclasses implement :meth:`receive`; :meth:`on_departure` is the egress
    hook ports call when a frame finishes transmitting (used for INT
    stamping and PFC counter release).
    """

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        # Canonical tie-break lane for events scheduled on this node's
        # behalf (flow starts, CC timers, samplers) — see Simulator.alloc_lane.
        self.lane = sim.alloc_lane()
        self.ports: List[Port] = []

    def new_port(self, rate_gbps: float, prop_delay_ps: int) -> Port:
        """Create the next port of this node."""
        port = Port(self.sim, self, len(self.ports), rate_gbps, prop_delay_ps)
        self.ports.append(port)
        return port

    def on_departure(self, pkt: Packet, port: Port) -> None:
        """Called by a port when ``pkt`` finished serializing out of it."""
