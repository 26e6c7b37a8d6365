"""PFC deadlock analysis — the cyclic-buffer-dependency check.

The paper's motivation (§1, §2.3) warns that PFC pauses "can trigger PFC
deadlocks and PFC storms"; Observation 2 adopts spanning-tree routing
partly because TCP-Bolt showed trees "prevent routing paths from forming
loops and causing deadlocks".  This module makes that analyzable:

* :func:`buffer_dependency_graph` — the directed graph, a dict from each
  (switch, ingress-port) buffer to the buffers it waits on, whose edges
  follow possible pause propagation given a set of routed paths.
* :func:`find_deadlock_cycles` — cyclic buffer dependencies (CBD).  A cycle
  means a PFC deadlock is *possible* under worst-case traffic.
* :func:`routing_is_deadlock_free` — True iff no CBD exists, e.g. for any
  up-down fat-tree routing or any spanning-tree routing (tested).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.routing.tables import bfs_distances

PathNames = Sequence[Hashable]  # node names along one routed path
Buffer = Tuple[Hashable, Hashable, int]  # (upstream, node, class): one ingress buffer


def buffer_dependency_graph(
    paths: Sequence[PathNames], classes: Optional[Sequence[int]] = None
) -> Dict[Buffer, Dict[Buffer, None]]:
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
    its own priority class.  Omitted, every path shares class 0.  Buffers
    are keys in the order the paths first reach them, successors likewise.
    """
    if classes is not None and len(classes) != len(paths):
        raise ValueError("classes must align with paths")
    g: Dict[Buffer, Dict[Buffer, None]] = {}
    for idx, path in enumerate(paths):
        if len(path) < 2:
            raise ValueError(f"path too short: {path!r}")
        cls = 0 if classes is None else classes[idx]
        hops = [(a, b, cls) for a, b in zip(path, path[1:])]
        for hop in hops:
            g.setdefault(hop, {})
        for u, v in zip(hops, hops[1:]):
            g[u][v] = None
    return g


def find_deadlock_cycles(paths: Sequence[PathNames]) -> List[List[Buffer]]:
    """All elementary cyclic buffer dependencies among the given paths, each
    starting at its first-seen buffer, listed in the order those were first
    seen: the answer depends on the paths alone, never on hash order."""
    g = buffer_dependency_graph(paths)
    waiters = _waiters(g)
    rank = {b: i for i, b in enumerate(g)}
    cycles = []

    def extend(path: List[Buffer], leads_back: Dict[Buffer, int]) -> None:
        for v in g[path[-1]]:
            if v == path[0]:
                cycles.append(path)
            elif v in leads_back and rank[v] > rank[path[0]] and v not in path:
                extend(path + [v], leads_back)

    for b in g:
        extend([b], bfs_distances(waiters, b))
    return cycles


def routing_is_deadlock_free(
    paths: Sequence[PathNames], classes: Optional[Sequence[int]] = None
) -> bool:
    """True iff the paths admit no cyclic buffer dependency: the dependency
    graph is acyclic, so no buffer waits on one that leads back to it."""
    g = buffer_dependency_graph(paths, classes)
    waiters = _waiters(g)
    return not any(bfs_distances(waiters, b).keys() & g[b].keys() for b in g)


def _waiters(g: Dict[Buffer, Dict[Buffer, None]]) -> Dict[Buffer, List[Buffer]]:
    """Buffer -> the buffers that wait on it: ``g`` reversed."""
    waiters: Dict[Buffer, List[Buffer]] = {b: [] for b in g}
    for u, succ in g.items():
        for v in succ:
            waiters[v].append(u)
    return waiters


def all_pairs_paths(topo) -> List[List[Hashable]]:
    """Every host-pair path under the topology's installed routing, as node
    names: each follows the switches' routers with a stub packet (same
    decisions as the packet sim).
    """
    from repro.net.packet import DATA, Packet

    def trace(src, dst):
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

    paths = []
    n = len(topo.hosts)
    for src in range(n):
        for dst in range(n):
            if src != dst:
                paths.append(trace(src, dst))
    return paths


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
