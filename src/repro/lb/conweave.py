"""ConWeave-lite: congestion-driven per-flow rerouting with epoch/tail
markers (after Song et al., "Network Load Balancing with In-network
Reordering Support for RDMA" — the ns-3 original ships in the related-repo
set as ``conweave-ns3``).

What is kept from ConWeave:

* **Source-ToR path control.**  The first switch a DATA packet hits
  (``pkt.hops == 1``) owns the flow's path: it stamps ``pkt.lb_tag`` with
  the flow's current *epoch*, and every multi-path switch downstream
  resolves its equal-cost choice as ``stable_hash64(src', dst', flow_id,
  tag) % n`` — so bumping the epoch at the ToR re-rolls the entire
  downstream path deterministically, the way ConWeave's path-id rewrite
  does.
* **Epoch/tail semantics.**  When the ToR decides to reroute, the packet
  in hand is sent as the *tail* of the old epoch (``lb_tail=True``) down
  the old path; subsequent packets carry the new epoch.  The receiver's
  reorder buffer uses the in-order arrival of a tail marker as the "old
  path has drained" signal (see ``transport/receiver.py``).
* **Reroute hysteresis.**  An epoch must live ``min_epoch_gap_ps`` before
  the next reroute, bounding flap rate like ConWeave's reply-gated epochs.

What is simplified (see DESIGN.md §"Load-balancing layer"):

* The RTT probe is *local*: instead of a probe/reply packet pair measuring
  the full path, the ToR samples its candidate egress queues every
  ``probe_interval_ps`` and converts backlog to delay
  (``bytes * 8 / rate``).  This senses uplink contention — the dominant
  term in the fat-tree scenarios — but not remote-hop congestion; full
  reply-path emulation is a ROADMAP open item.
* No receiver-side CLEAR/NOTIFY reply packets: the tail marker rides the
  last old-path DATA packet instead of a dedicated control frame.
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

#: How often a flow's path choice is re-evaluated at its source ToR.
DEFAULT_PROBE_INTERVAL_PS = us(5)
#: Queueing-delay advantage the best alternative must show to trigger a
#: reroute (filters noise; roughly 2 MTUs of backlog at 100 Gb/s).
DEFAULT_THRESHOLD_PS = us(0.25)
#: Minimum epoch lifetime (reroute hysteresis).
DEFAULT_MIN_EPOCH_GAP_PS = us(25)

# Per-flow state list indices: [epoch, last_probe_ps, epoch_start_ps,
# last_seen_ps].
_EPOCH, _PROBED, _STARTED, _SEEN = range(4)


@register
class ConWeaveLiteLB(LoadBalancer):
    """RTT-probe-driven rerouting with epoch/tail markers."""

    name = "conweave"
    reorders = True

    def __init__(
        self,
        probe_interval_ps: int = DEFAULT_PROBE_INTERVAL_PS,
        threshold_ps: int = DEFAULT_THRESHOLD_PS,
        min_epoch_gap_ps: int = DEFAULT_MIN_EPOCH_GAP_PS,
        max_cache_entries: int = 1 << 16,
    ) -> None:
        super().__init__(max_cache_entries=max_cache_entries)
        if probe_interval_ps <= 0 or min_epoch_gap_ps <= 0:
            raise ValueError("probe interval and epoch gap must be positive")
        self.probe_interval_ps = probe_interval_ps
        self.threshold_ps = threshold_ps
        self.min_epoch_gap_ps = min_epoch_gap_ps
        #: (src, dst, flow_id) -> [epoch, last_probe, epoch_start, last_seen]
        self.flows: Dict[tuple, list] = {}
        self.hash_cache: Dict[tuple, int] = {}
        self.reroutes = 0
        self.probes = 0
        #: Observability callback slot (repro.obs.trace sets it): invoked
        #: as ``on_reroute(now, src, dst, flow_id, old_port, new_port)``
        #: on the reroute branch only — no per-packet cost when unset, and
        #: no wrapper on ``router`` so the train gate is untouched.
        self.on_reroute = None

    def _sweep(self, now: int) -> None:
        """Evict flows idle for > 8 epoch gaps (their next packet simply
        restarts at epoch 0 — the receiver treats epochs as advisory)."""
        idle = 8 * self.min_epoch_gap_ps
        sweep_bounded_table(
            self.flows, self.max_cache_entries, lambda v: now - v[_SEEN] > idle
        )

    def invalidate(self) -> None:
        """Failover: forget per-flow epoch/port state; each flow restarts
        at epoch 0 on a port drawn from the post-failover group (receivers
        treat epochs as advisory, so this is ordinary reordering)."""
        self.flows.clear()
        super().invalidate()

    def make_router(self, sw: "Switch", split: Dict[int, object]) -> Router:
        cap = self.max_cache_entries
        table = self.flows
        flow_hash_port = make_flow_hash_port(self.hash_cache, cap)
        sim = sw.sim
        ports_list = sw.ports
        probe_every = self.probe_interval_ps
        threshold = self.threshold_ps
        min_gap = self.min_epoch_gap_ps
        lb = self

        def tag_port(src: int, dst: int, fid: int, tag: int, ports, n: int) -> int:
            return ports[stable_hash64(src, dst, fid, tag, 0) % n]

        def qdelay_ps(port_idx: int) -> int:
            p = ports_list[port_idx]
            return round(p.qbytes_total * 8000 / p.rate_gbps)

        def router(sw: "Switch", pkt: "Packet") -> int:
            entry = split[pkt.dst]
            if type(entry) is int:
                single = True
                ports, n = (entry,), 1
            else:
                single = False
                ports, n = entry
            src = pkt.src
            dst = pkt.dst
            fid = pkt.flow_id
            if pkt.kind != DATA:
                if single:
                    return entry
                # Canonical symmetric flow hash (stable reverse path).
                return flow_hash_port(src, dst, fid, ports, n)
            if pkt.hops != 1:
                # Downstream switch: obey the source ToR's epoch tag.
                if single:
                    return entry
                tag = pkt.lb_tag
                if tag < 0:  # untagged (no ToR in front, e.g. bare fixtures)
                    tag = 0
                return tag_port(src, dst, fid, tag, ports, n)
            # Source ToR: own the flow's epoch.
            now = sim.now
            key = (src, dst, fid)
            state = table.get(key)
            if state is None:
                if len(table) >= cap:
                    # census: a full flow table — tests/lb/test_strategies.py::TestConWeaveLite::test_flow_table_bounded
                    lb._sweep(now)
                state = table[key] = [0, now, now, now]
            else:
                state[_SEEN] = now
            tag = state[_EPOCH]
            if single:
                pkt.lb_tag = tag
                return entry
            cur_port = tag_port(src, dst, fid, tag, ports, n)
            if now - state[_PROBED] >= probe_every:
                state[_PROBED] = now
                lb.probes += 1
                best_port, best_d = cur_port, qdelay_ps(cur_port)
                for p in ports:
                    if p == cur_port:
                        continue
                    d = qdelay_ps(p)
                    if d < best_d:
                        best_port, best_d = p, d
                if (
                    best_port != cur_port
                    and qdelay_ps(cur_port) - best_d > threshold
                    and now - state[_STARTED] >= min_gap
                ):
                    # Find the next epoch whose hash lands on the best port
                    # (bounded search).  If no nearby tag reaches it, skip
                    # this reroute rather than burn an epoch (and its
                    # hysteresis window) on a tag that may re-hash onto the
                    # same congested port.
                    new_tag = -1
                    for t in range(tag + 1, tag + 1 + 4 * n):
                        if tag_port(src, dst, fid, t, ports, n) == best_port:
                            new_tag = t
                            break
                    if new_tag >= 0:
                        state[_EPOCH] = new_tag
                        state[_STARTED] = now
                        lb.reroutes += 1
                        cb = lb.on_reroute
                        if cb is not None:
                            # census: a traced reroute — tests/obs/test_zero_perturbation.py::TestTraceHooksObserve::test_lb_reroute_callback_fires
                            cb(now, src, dst, fid, cur_port, best_port)
                        # The packet in hand is the old epoch's tail: it
                        # drains the old path and tells the receiver the
                        # reroute is complete once it arrives in order.
                        pkt.lb_tag = tag
                        pkt.lb_tail = True
                        return cur_port
            pkt.lb_tag = tag
            return cur_port

        return router
