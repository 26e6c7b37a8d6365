"""Flow-level (fluid) network simulator: max-min fair sharing, no packets.

Use case (DESIGN.md): cross-validating FCT *trends* at the paper's full
scale (k=8 fat-tree, 128 hosts, thousands of flows), where packet-level
simulation in Python is impractical — and, since the hybrid backend
(DESIGN.md §6), serving as its fluid tier.  A congestion-controlled fabric
in steady state approximates max-min fairness, so this model predicts the
workload-level shape (which size bins suffer, where the load knee is) that
an ideally-converging CC — FNCC's aspiration — would achieve.

Mechanics: this module is a thin façade over the incremental engine in
:mod:`repro.hybrid.fluid` — heap-based progressive waterfilling that
re-solves only the flows sharing a link with each arrival/completion,
instead of the seed's O(L²)-per-event full recompute.  Completion times
are normalized against the flow's *solo* service time: a flow's FCT is
``ideal_fct_ps × (actual service time / solo service time)``, so a flow
that never shares a link lands at a slowdown of exactly 1.0 and a
contended flow's slowdown is its fluid service-time inflation.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.hybrid.fluid import FluidEngine, RateHistory
from repro.metrics.ideal import ideal_fct_ps
from repro.transport.flow import Flow, FlowRecord
from repro.units import DEFAULT_MTU

LinkKey = Tuple[Hashable, Hashable]
PathFn = Callable[[Flow], List[LinkKey]]

#: Bound on the per-topology path memo in :func:`from_topology` (entries
#: are (src, dst, flow_id) triples; the memo is cleared, not evicted).
_PATH_MEMO_MAX = 1 << 18


class FlowSimResult:
    """Completion records with paper-comparable slowdowns, plus the
    per-flow fluid windows and per-link congestion/background data the
    hybrid tier boundary consumes."""

    def __init__(self) -> None:
        self.records: List[FlowRecord] = []
        #: flow_id -> (start_ps, fluid finish time in float ps).
        self.windows: Dict[int, Tuple[int, float]] = {}
        #: flow_id -> resolved path (list of directed LinkKeys).
        self.paths: Dict[int, List[LinkKey]] = {}
        #: LinkKey -> merged [(t0, t1)] congestion intervals (only when
        #: ``run(congestion=...)`` was requested).
        self.congestion_intervals: Dict[LinkKey, List[Tuple[float, float]]] = {}
        #: Every committed rate change of the run (only when
        #: ``run(keep_history=True)`` was requested); what
        #: :meth:`FlowLevelSimulator.replay_bg` integrates.
        self.history: Optional[RateHistory] = None
        self.n_events = 0
        self.end_time = 0.0
        self.max_active = 0
        self.n_rate_changes = 0
        self.n_waterfills = 0
        self.n_heap_pops = 0

    def add(self, rec: FlowRecord) -> None:
        self.records.append(rec)

    def slowdowns(self) -> List[float]:
        return [r.slowdown for r in self.records]

    def completed(self) -> int:
        return len(self.records)


class FlowLevelSimulator:
    """Max-min fluid simulator over a directed-capacity link set."""

    def __init__(self) -> None:
        self._capacity: Dict[LinkKey, float] = {}  # bytes/ps
        self._link_attrs: Dict[LinkKey, Tuple[float, int]] = {}  # (gbps, prop)
        # Dense link-id view reused across runs (the engine's index space).
        self._link_ids: Dict[LinkKey, int] = {}
        self._caps: List[float] = []
        self._id_to_key: List[LinkKey] = []

    def add_link(
        self, u: Hashable, v: Hashable, rate_gbps: float, prop_delay_ps: int = 0
    ) -> None:
        """A full-duplex link: two independent directed capacities."""
        if rate_gbps <= 0:
            raise ValueError("rate must be positive")
        for key in ((u, v), (v, u)):
            self._capacity[key] = rate_gbps / 8000.0
            self._link_attrs[key] = (rate_gbps, prop_delay_ps)
            lid = self._link_ids.get(key)
            if lid is None:
                self._link_ids[key] = len(self._caps)
                self._caps.append(rate_gbps / 8000.0)
                self._id_to_key.append(key)
            else:
                self._caps[lid] = rate_gbps / 8000.0

    @property
    def n_links(self) -> int:
        return len(self._capacity)

    # -- event loop ------------------------------------------------------------------
    def run(
        self,
        flows: Sequence[Flow],
        path_fn: PathFn,
        mtu: int = DEFAULT_MTU,
        header: int = 48,
        congestion: Optional[Tuple[float, int]] = None,
        keep_history: bool = False,
        cap_schedule: Optional[Sequence[Tuple[int, LinkKey, float]]] = None,
        rate_eps: float = 0.02,
        ripple_rounds: Optional[int] = None,
    ) -> FlowSimResult:
        """Simulate the flow set; returns completion records with slowdowns
        normalized exactly like the packet simulator's.

        The keyword hooks are the hybrid tier boundary (DESIGN.md §6):
        ``congestion=(util_threshold, min_flows)`` records per-link
        congested intervals; ``keep_history=True`` keeps the rate history
        that :meth:`replay_bg` turns into any flow subset's
        offered bytes per (link, epoch), without another run;
        ``cap_schedule=[(t_ps, link_key, rate_gbps), ...]`` applies
        piecewise-constant capacity changes (residual capacity feedback).
        """
        result = FlowSimResult()
        link_ids = self._link_ids

        sched = []
        for t, k, rate_gbps in cap_schedule or ():
            lid = link_ids.get(k)
            if lid is None:
                raise KeyError(f"capacity schedule: unknown link {k}")
            sched.append((t, lid, rate_gbps / 8000.0))

        engine = FluidEngine(
            self._caps,
            congestion=congestion,
            keep_history=keep_history,
            cap_schedule=sched,
            rate_eps=rate_eps,
            ripple_rounds=ripple_rounds,
        )

        # Flows are serviced in *wire bytes* (payload inflated by per-frame
        # header overhead) so solo service times match the header-aware
        # ideal FCT's transmission component.
        wire_factor = mtu / (mtu - header)
        meta: List[Tuple[Flow, int]] = []
        for f in flows:
            path = list(path_fn(f))
            if not path:
                raise ValueError(f"flow {f.flow_id}: empty path")
            lids = []
            for lk in path:
                lid = link_ids.get(lk)
                if lid is None:
                    raise KeyError(f"flow {f.flow_id}: unknown link {lk}")
                lids.append(lid)
            links = [self._link_attrs[lk] for lk in path]
            ideal = ideal_fct_ps(f.size_bytes, links, mtu=mtu, header=header)
            engine.add_flow(lids, f.size_bytes * wire_factor, f.start_ps)
            meta.append((f, ideal))
            result.paths[f.flow_id] = path

        for r in engine.run():
            f, ideal = meta[r.index]
            if r.clean:
                # Rate never deviated from the solo bottleneck rate: the
                # service ratio is exactly 1, no float residue.
                fct = ideal
            else:
                s_solo = (f.size_bytes * wire_factor) / r.solo_rate
                fct = round(ideal * ((r.finish - r.start) / s_solo))
            rec = FlowRecord(f, f.start_ps + fct)
            rec.ideal_fct_ps = ideal
            result.add(rec)
            result.windows[f.flow_id] = (f.start_ps, r.finish)

        inv = self._id_to_key
        result.congestion_intervals = {
            inv[l]: iv for l, iv in engine.congestion_intervals.items()
        }
        result.history = engine.history
        result.n_events = engine.n_events
        result.end_time = engine.end_time
        result.max_active = engine.max_active
        result.n_rate_changes = engine.n_rate_changes
        result.n_waterfills = engine.n_waterfills
        result.n_heap_pops = engine.n_heap_pops
        return result

    def replay_bg(
        self,
        result: FlowSimResult,
        epoch_ps: int,
        link_keys: Sequence[LinkKey],
        flow_ids: Sequence[int],
    ) -> Dict[LinkKey, Dict[int, float]]:
        """``{LinkKey: {epoch index: bytes}}`` the flows in ``flow_ids``
        offered on each of ``link_keys`` during the run that produced
        ``result`` (links that saw none are left out), integrated from its
        rate history — bit-identical to accumulating inside the run, for
        any selection, any number of times (see
        :meth:`repro.hybrid.fluid.RateHistory.replay_bg`)."""
        if result.history is None:
            raise RuntimeError("no rate history: run(keep_history=True) first")
        lids = []
        for k in link_keys:
            lid = self._link_ids.get(k)
            if lid is None:
                raise KeyError(f"unknown background link {k}")
            lids.append(lid)
        wanted = frozenset(flow_ids)
        # result.paths is keyed in flow order: position = dense flow index.
        per_link = result.history.replay_bg(
            epoch_ps, lids, [i for i, fid in enumerate(result.paths) if fid in wanted]
        )
        inv = self._id_to_key
        return {inv[l]: d for l, d in per_link.items() if d}


def from_topology(topo) -> Tuple[FlowLevelSimulator, PathFn]:
    """Build a flow-level simulator mirroring a packet
    :class:`~repro.topo.base.Topology`, with a path function that follows
    the *same ECMP decisions* as the packet switches (so the two simulators
    are comparable flow by flow).

    When every switch routes statically per flow (hand-wired tables or a
    ``train_transparent`` strategy), resolved paths are memoized per
    ``(src, dst, flow_id)`` — the flow id must stay in the key because
    ECMP hashes it, so a plain ``(src, dst)`` key would collapse the
    fabric's path diversity.  The memo is invalidated whenever
    :func:`repro.lb.install_lb` installs a new strategy (it bumps
    ``topo.routing_epoch``), and bounded at ``_PATH_MEMO_MAX`` entries.
    """
    from repro.net.packet import DATA, Packet

    fls = FlowLevelSimulator()
    for u, v, attrs in topo.edges():
        fls.add_link(u, v, attrs["rate_gbps"], attrs["prop_delay_ps"])

    # One probe frame reused across walks (static routers read only the
    # (flow_id, src, dst) triple); per-switch port->peer-name tables kill
    # the per-hop attribute chases of the naive walk.
    probe = Packet(DATA, flow_id=0, src=0, dst=1)
    state = {"epoch": None, "memo": {}, "peers": {}, "static": False}

    def _refresh() -> None:
        state["epoch"] = getattr(topo, "routing_epoch", 0)
        state["memo"] = {}
        state["peers"] = {}
        state["static"] = all(
            getattr(sw, "lb", None) is None or sw.lb.train_transparent
            for sw in topo.switches
        )

    def path_fn(flow: Flow) -> List[LinkKey]:
        if state["epoch"] != getattr(topo, "routing_epoch", 0):
            _refresh()
        static = state["static"]
        if static:
            hit = state["memo"].get((flow.src, flow.dst, flow.flow_id))
            if hit is not None:
                return hit
            pkt = probe
            pkt.flow_id = flow.flow_id
            pkt.src = flow.src
            pkt.dst = flow.dst
        else:
            # Dynamic strategies may mutate the frame they route; give
            # them a fresh one like the packet engine would.
            pkt = Packet(DATA, flow_id=flow.flow_id, src=flow.src, dst=flow.dst)
        src_name = topo.hosts[flow.src].name
        dst_name = topo.hosts[flow.dst].name
        current = next(iter(topo.adj[src_name]))
        hops: List[LinkKey] = [(src_name, current)]
        peers = state["peers"]
        guard = 0
        while True:
            guard += 1
            if guard > 64:
                raise RuntimeError("routing loop in path_fn")
            sw = topo.node(current)
            out = sw.router(sw, pkt)
            table = peers.get(current)
            if table is None:
                table = peers[current] = [
                    p.peer.node.name if p.peer is not None else None
                    for p in sw.ports
                ]
            peer = table[out]
            hops.append((current, peer))
            if peer == dst_name:
                break
            current = peer
        if static:
            memo = state["memo"]
            if len(memo) >= _PATH_MEMO_MAX:
                memo.clear()
            memo[(flow.src, flow.dst, flow.flow_id)] = hops
        return hops

    return fls, path_fn
