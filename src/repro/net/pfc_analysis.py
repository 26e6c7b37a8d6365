"""PFC deadlock analysis — the cyclic-buffer-dependency check.

The paper's motivation (§1, §2.3) warns that PFC pauses "can trigger PFC
deadlocks and PFC storms"; Observation 2 adopts spanning-tree routing
partly because TCP-Bolt showed trees "prevent routing paths from forming
loops and causing deadlocks".  This module makes that analyzable:

* :func:`buffer_dependency_graph` — the directed graph whose nodes are
  (switch, ingress-port) buffers and whose edges follow possible pause
  propagation given a set of routed paths.
* :func:`find_deadlock_cycles` — cyclic buffer dependencies (CBD).  A cycle
  means a PFC deadlock is *possible* under worst-case traffic.
* :func:`routing_is_deadlock_free` — True iff no CBD exists, e.g. for any
  up-down fat-tree routing or any spanning-tree routing (tested).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

PathNames = Sequence[Hashable]  # node names along one routed path


def buffer_dependency_graph(
    paths: Sequence[PathNames], classes: Optional[Sequence[int]] = None
) -> nx.DiGraph:
    """Build the CBD graph from routed paths (each a node-name sequence).

    For a path ... a -> b -> c ..., the packet occupies b's ingress buffer
    from link (a,b) and next wants c: if b's buffer fills, PFC pauses a,
    backing traffic into a's ingress buffer from its own upstream.  So for
    every consecutive link pair ((a,b), (b,c)) we add a dependency edge
    buffer(a->b) -> buffer(b->c): the former can only drain if the latter
    drains.

    ``classes`` (one int per path) models per-class lossless buffers
    (PFC priorities): dependencies never cross classes, which is how
    TCP-Bolt makes multiple spanning trees deadlock-free — each tree gets
    its own priority class.  Omitted, every path shares class 0.
    """
    import networkx as nx

    if classes is not None and len(classes) != len(paths):
        raise ValueError("classes must align with paths")
    g = nx.DiGraph()
    for idx, path in enumerate(paths):
        if len(path) < 2:
            raise ValueError(f"path too short: {path!r}")
        cls = 0 if classes is None else classes[idx]
        hops = [(a, b, cls) for a, b in zip(path, path[1:])]
        for (a, b, c1), (_b, c, c2) in zip(hops, hops[1:]):
            g.add_edge((a, b, c1), (b, c, c2))
        for hop in hops:
            g.add_node(hop)
    return g


def find_deadlock_cycles(
    paths: Sequence[PathNames], classes: Optional[Sequence[int]] = None
) -> List[List[Tuple]]:
    """All elementary cyclic buffer dependencies among the given paths."""
    import networkx as nx

    g = buffer_dependency_graph(paths, classes)
    return [cycle for cycle in nx.simple_cycles(g)]


def routing_is_deadlock_free(
    paths: Sequence[PathNames], classes: Optional[Sequence[int]] = None
) -> bool:
    """True iff the paths admit no cyclic buffer dependency."""
    import networkx as nx

    return nx.is_directed_acyclic_graph(buffer_dependency_graph(paths, classes))


def all_pairs_paths(topo, trace_fn=None) -> List[List[Hashable]]:
    """Every host-pair path under the topology's installed routing.

    ``trace_fn(topo, src, dst) -> [node names]`` defaults to following the
    switches' routers with a stub packet (same decisions as the packet sim).
    """
    from repro.net.packet import DATA, Packet

    def default_trace(topo, src, dst):
        pkt = Packet(DATA, flow_id=src * 65536 + dst, src=src, dst=dst)
        src_name = topo.hosts[src].name
        dst_name = topo.hosts[dst].name
        current = next(iter(topo.adj[src_name]))
        names = [src_name, current]
        guard = 0
        while True:
            guard += 1
            if guard > 64:
                raise RuntimeError("routing loop while tracing")
            sw = topo.node(current)
            out = sw.router(sw, pkt)
            peer = sw.ports[out].peer.node.name
            names.append(peer)
            if peer == dst_name:
                return names
            current = peer

    trace = trace_fn or default_trace
    paths = []
    n = len(topo.hosts)
    for src in range(n):
        for dst in range(n):
            if src != dst:
                paths.append(trace(topo, src, dst))
    return paths


class StormIsolationResult:
    """Outcome of :func:`run_storm_isolation` — one run, with or without
    the watchdog armed."""

    def __init__(
        self,
        watchdog: bool,
        innocent_fct_ps: Optional[int],
        victim_failed: bool,
        victim_fct_ps: Optional[int],
        wd_state: Optional[dict],
        upstream_pauses: int,
    ) -> None:
        self.watchdog = watchdog
        #: FCT of the bystander flow (None = never completed — victimized).
        self.innocent_fct_ps = innocent_fct_ps
        self.victim_failed = victim_failed
        self.victim_fct_ps = victim_fct_ps
        self.wd_state = wd_state
        #: PAUSE frames the ToR propagated upstream (victim spreading).
        self.upstream_pauses = upstream_pauses


def run_storm_isolation(
    seed: int = 1,
    watchdog: bool = True,
    detect_us: float = 30.0,
    restore_us: float = 60.0,
    storm_start_us: float = 5.0,
    storm_duration_us: float = 6000.0,
    duration_us: float = 6000.0,
) -> StormIsolationResult:
    """The PFC-storm victimization scenario the watchdog exists for
    (DESIGN.md §10): on a k=4 fat-tree, host ``h_0_0_0``'s NIC wedges and
    sprays stuck-XOFF PAUSE at its ToR (a :meth:`FaultPlan.pfc_storm`).
    A *victim* flow keeps sending into the dead host; its frames pile up
    in ``tor_0_0`` until PFC back-pressures every upstream — stalling an
    *innocent* flow that merely transits the same ToR.

    Without the watchdog the stall is permanent (the dead NIC never sends
    RESUME).  With :func:`repro.net.switch.arm_watchdog` (``"drop"``
    action) the stuck queue is detected within ``detect_ps + poll_ps``,
    force-resumed and isolated: the innocent flow finishes at a healthy
    FCT and the victim's sender degrades to flow-failed via its RTO
    budget instead of hanging.
    """
    from repro.cc.registry import make_cc_factory
    from repro.faults import FaultInjector, FaultPlan
    from repro.net.switch import PfcWatchdogConfig, SwitchConfig, arm_watchdog
    from repro.sim.engine import Simulator
    from repro.sim.rng import SeedSequenceFactory
    from repro.topo.fattree import fattree
    from repro.transport.flow import Flow
    from repro.transport.sender import TransportConfig
    from repro.units import KB, MB, us

    sim = Simulator()
    seeds = SeedSequenceFactory(seed)
    topo = fattree(
        sim,
        k=4,
        seeds=seeds,
        # Low XOFF so the victim's stuck backlog back-pressures the ToR's
        # ingresses quickly — the victimization the watchdog must stop.
        switch_config=SwitchConfig(pfc_xoff=50 * KB),
        transport_config=TransportConfig(
            retx_timeout_ps=us(150), retx_backoff_cap=3, retx_max_timeouts=6
        ),
    )
    tor = topo.node("tor_0_0")
    wd = None
    if watchdog:
        wd = arm_watchdog(
            tor,
            PfcWatchdogConfig(
                detect_ps=us(detect_us), restore_ps=us(restore_us), action="drop"
            ),
        )

    plan = FaultPlan("nic-storm").pfc_storm(
        "tor_0_0",
        toward="h_0_0_0",
        prio=0,
        start_ps=us(storm_start_us),
        duration_ps=us(storm_duration_us),
        interval_ps=us(10),
    )
    FaultInjector(plan).arm(sim, topo, seeds=seeds)

    # Victim sends into the wedged host; the innocent bystander shares the
    # victim's source NIC and ToR but exits the pod upward.
    victim = Flow(0, src=1, dst=0, size_bytes=2 * MB)
    innocent = Flow(1, src=1, dst=2, size_bytes=500 * KB)
    fct: dict = {}
    for host in topo.hosts:
        host.fct_sink = lambda rqp: fct.__setitem__(rqp.flow.flow_id, rqp.finish_ps)
    qps = {}
    for flow in (victim, innocent):
        topo.hosts[flow.dst].register_receiver(flow)
        src = topo.hosts[flow.src]
        cc = make_cc_factory("swift")(flow, src)
        qps[flow.flow_id] = src.start_flow(
            flow, cc, topo.base_rtt_ps(flow.src, flow.dst)
        )
    sim.run(until=us(duration_us))
    sim.stop_monitors()

    # Every PAUSE the ToR itself emitted is the storm spreading to an
    # innocent neighbour (its own buffer filled behind the stuck queue).
    upstream_pauses = sum(p.stats.pause_sent for p in tor.ports)
    return StormIsolationResult(
        watchdog=watchdog,
        innocent_fct_ps=(
            fct[innocent.flow_id] - innocent.start_ps
            if innocent.flow_id in fct
            else None
        ),
        victim_failed=bool(getattr(qps[victim.flow_id], "failed", False)),
        victim_fct_ps=(
            fct[victim.flow_id] - victim.start_ps if victim.flow_id in fct else None
        ),
        wd_state=wd.state() if wd is not None else None,
        upstream_pauses=upstream_pauses,
    )


def all_pairs_paths_with_tree_classes(topo) -> Tuple[List[List[Hashable]], List[int]]:
    """Paths plus the per-tree traffic class of each (for topologies routed
    with :func:`repro.routing.install_spanning_trees`)."""
    from repro.routing.spanning_tree import tree_index

    n_trees = getattr(topo, "n_spanning_trees", None)
    if n_trees is None:
        raise ValueError("topology is not spanning-tree routed")
    paths = all_pairs_paths(topo)
    classes = []
    n = len(topo.hosts)
    for src in range(n):
        for dst in range(n):
            if src != dst:
                classes.append(tree_index(src, dst, src * 65536 + dst, n_trees))
    return paths, classes
