"""Per-packet spray: every DATA packet independently picks an equal-cost
next hop (RPS/DRILL-style), round robin: one counter per (switch,
destination) entry, so consecutive packets toward the same destination
walk the next-hop list cyclically.  Deterministic with no RNG at all, and
gives the most even short-term spread.

Only DATA packets are sprayed.  ACKs and CNPs ride the canonical
symmetric-ECMP flow hash: the reverse path stays stable, so ACK-clocking
and the ACK-path telemetry of FNCC keep a consistent (if now asymmetric)
view while the request path spreads over every core.  Spraying breaks
in-order delivery by design — receivers must run the reorder window
(:func:`repro.lb.base.install_lb` enforces this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.lb.base import LoadBalancer, Router, make_flow_hash_port, register
from repro.net.packet import DATA

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.net.switch import Switch


@register
class SprayLB(LoadBalancer):
    """Per-packet load balancing over equal-cost next hops."""

    name = "spray"
    reorders = True

    def __init__(self, max_cache_entries: int = 1 << 16) -> None:
        super().__init__(max_cache_entries=max_cache_entries)
        #: dst -> next round-robin offset.
        self.rr_state: Dict[int, int] = {}
        self.hash_cache: Dict[tuple, int] = {}

    def make_router(self, sw: "Switch", split: Dict[int, object]) -> Router:
        # Canonical symmetric flow hash for the non-sprayed kinds.
        flow_hash_port = make_flow_hash_port(self.hash_cache, self.max_cache_entries)
        rr = self.rr_state

        def router(sw: "Switch", pkt: "Packet") -> int:
            entry = split[pkt.dst]
            if type(entry) is int:
                return entry
            ports, n = entry
            if pkt.kind != DATA:
                return flow_hash_port(pkt.src, pkt.dst, pkt.flow_id, ports, n)
            dst = pkt.dst
            i = rr.get(dst, 0)
            rr[dst] = i + 1 if i + 1 < n else 0
            return ports[i]

        return router
