"""Flowlet switching, CONGA-style.

A *flowlet* is a burst of a flow's packets separated from the next burst by
an idle gap longer than the network's path-delay skew.  Re-routing only at
flowlet boundaries gets most of per-packet spray's balancing while keeping
packets inside a burst in order: by the time the next flowlet starts, the
previous one has drained from whichever path it took.

Per-switch state (the flowlet table): ``(src, dst, flow_id) ->
[last_seen_ps, flowlet_seq, port]``.  A DATA packet whose gap since
``last_seen`` exceeds ``gap_ps`` opens a new flowlet and re-selects the
egress port, congestion-aware: the candidate with the smallest local
egress backlog wins, ties broken by ``stable_hash64(src, dst, flow_id,
flowlet_seq)`` over the tied set (so an idle fabric degenerates to
ECMP-quality spreading rather than herding onto port 0).  This is CONGA's
leaf decision with local queue depth standing in for the fabric congestion
tables.

ACKs/CNPs ride the canonical symmetric flow hash (stable reverse path),
like :class:`~repro.lb.spray.SprayLB`.  Everything is deterministic in the
seed and arrival timing — the determinism suite pins flowlet boundaries.

The table is bounded: when it fills, entries idle for more than ``gap_ps``
are swept (semantics-free — an expired entry would re-select on its next
packet anyway); if the sweep frees nothing the table is cleared, which at
worst starts every active flow on a fresh flowlet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.lb.base import (
    LoadBalancer,
    Router,
    make_flow_hash_port,
    register,
    sweep_bounded_table,
)
from repro.net.packet import DATA
from repro.sim.rng import stable_hash64
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.net.switch import Switch

#: Default idle gap: has to clear the worst-case path-delay *skew* (the
#: queueing difference between equal-cost paths), not the full RTT.  At
#: paper defaults a couple of µs of skew is typical under load.
DEFAULT_GAP_PS = us(2)


@register
class FlowletLB(LoadBalancer):
    """Idle-gap flowlet switching over equal-cost next hops."""

    name = "flowlet"
    reorders = True

    def __init__(
        self,
        gap_ps: int = DEFAULT_GAP_PS,
        max_cache_entries: int = 1 << 16,
    ) -> None:
        super().__init__(max_cache_entries=max_cache_entries)
        if gap_ps <= 0:
            raise ValueError("flowlet gap must be positive")
        self.gap_ps = gap_ps
        #: (src, dst, flow_id) -> [last_seen_ps, flowlet_seq, port]
        self.flowlets: Dict[tuple, list] = {}
        self.hash_cache: Dict[tuple, int] = {}
        self.flowlet_starts = 0  # boundary counter (tests/metrics)

    def _sweep(self, now: int) -> None:
        gap = self.gap_ps
        sweep_bounded_table(
            self.flowlets, self.max_cache_entries, lambda v: now - v[0] > gap
        )

    def invalidate(self) -> None:
        """Failover: drop every live flowlet so the next packet of each
        flow picks a port from the post-failover ECMP group (an evicted
        flowlet just restarts — advisory state)."""
        self.flowlets.clear()
        super().invalidate()

    def make_router(self, sw: "Switch", split: Dict[int, object]) -> Router:
        gap = self.gap_ps
        cap = self.max_cache_entries
        table = self.flowlets
        flow_hash_port = make_flow_hash_port(self.hash_cache, cap)
        sim = sw.sim
        sw_ports = sw.ports
        lb = self

        def pick_port(src: int, dst: int, fid: int, seq: int, ports, n: int) -> int:
            h = stable_hash64(src, dst, fid, seq, 0)
            # Congestion-aware: smallest local egress backlog wins; ties
            # (the idle-fabric common case) break by hash over the tied set.
            best = [ports[0]]
            best_q = sw_ports[ports[0]].qbytes_total
            for p in ports[1:]:
                q = sw_ports[p].qbytes_total
                if q < best_q:
                    best = [p]
                    best_q = q
                elif q == best_q:
                    best.append(p)
            return best[0] if len(best) == 1 else best[h % len(best)]

        def router(sw: "Switch", pkt: "Packet") -> int:
            entry = split[pkt.dst]
            if type(entry) is int:
                return entry
            ports, n = entry
            src = pkt.src
            dst = pkt.dst
            fid = pkt.flow_id
            if pkt.kind != DATA:
                # Canonical symmetric flow hash (stable reverse path).
                return flow_hash_port(src, dst, fid, ports, n)
            now = sim.now
            key = (src, dst, fid)
            state = table.get(key)
            if state is None:
                if len(table) >= cap:
                    # census: a full flowlet table — tests/lb/test_strategies.py::TestFlowlet::test_table_bounded
                    lb._sweep(now)
                port = pick_port(src, dst, fid, 0, ports, n)
                table[key] = [now, 0, port]
                lb.flowlet_starts += 1
                return port
            if now - state[0] > gap:
                state[0] = now
                seq = state[1] = state[1] + 1
                port = state[2] = pick_port(src, dst, fid, seq, ports, n)
                lb.flowlet_starts += 1
                return port
            state[0] = now
            return state[2]

        return router
