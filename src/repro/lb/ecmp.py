"""Per-flow ECMP behind the :class:`~repro.lb.base.LoadBalancer` interface.

This is the paper's baseline (Fig. 5): the hash input is the canonical
five-tuple ``(min(src,dst), max(src,dst), flow_id)`` so a data packet and
its ACK produce the same value, and with consistently ordered next-hop
lists both directions pick the same physical path.

The flow-hash memo is *bounded*: keys accumulate per flow, so an open-loop
run generating millions of flows used to grow the old closure-scoped cache
without limit.  The cache is owned by the per-switch instance (a fresh
topology never inherits stale entries) and is cleared when it reaches
``max_cache_entries`` — safe, because the hash is a pure function of the
packet and is simply recomputed on the next miss.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.lb.base import LoadBalancer, Router, register
from repro.sim.rng import stable_hash64

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.net.switch import Switch


@register
class EcmpLB(LoadBalancer):
    """Hash-per-flow ECMP (the ``install_ecmp`` baseline)."""

    name = "ecmp"
    reorders = False
    # The hash is a pure function of (src, dst, flow_id): one routing
    # decision is valid for a whole same-flow frame train.  The bounded
    # memo does not break this — a cleared entry recomputes identically.
    train_transparent = True

    def __init__(self, max_cache_entries: int = 1 << 16) -> None:
        super().__init__(max_cache_entries=max_cache_entries)
        self.hash_cache: Dict[tuple, int] = {}

    def make_router(self, sw: "Switch", split: Dict[int, object]) -> Router:
        hash_cache = self.hash_cache
        cap = self.max_cache_entries

        def router(sw: "Switch", pkt: "Packet") -> int:
            entry = split[pkt.dst]
            if type(entry) is int:
                return entry
            ports, n = entry
            a, b = pkt.src, pkt.dst
            if a > b:
                a, b = b, a
            key = (a, b, pkt.flow_id)
            h = hash_cache.get(key)
            if h is None:
                if len(hash_cache) >= cap:
                    # census: a full hash memo — tests/lb/test_strategies.py::TestEcmpBounded::test_hash_cache_bounded
                    hash_cache.clear()
                # The trailing 0 is part of the hash input (path choices
                # are pinned across commits); it is not a knob.
                h = hash_cache[key] = stable_hash64(a, b, pkt.flow_id, 0)
            return ports[h % n]

        return router
