"""Multiple-spanning-tree routing (Fig. 6, after TCP-Bolt).

Each tree has a unique path between any pair of nodes, so data and ACK
paths are identical by construction — no hash symmetry needed.  Trees are
minimum spanning trees under independent random edge weights, which yields
diverse trees on path-diverse topologies (Jellyfish, fat-tree).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.routing.tables import RoutingTables, build_graph_tables
from repro.sim.rng import stable_hash64

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.net.packet import Packet
    from repro.net.switch import Switch
    from repro.topo.base import Topology

#: Spanning trees :func:`install_spanning_trees` builds (flows hash onto one).
N_TREES = 3


def build_trees(topo: "Topology", n_trees: int, seed: int) -> List[nx.Graph]:
    """``n_trees`` spanning trees of the topology graph, deterministic in
    ``seed``.  Host access links appear in every tree (hosts are leaves)."""
    import networkx as nx

    if n_trees < 1:
        raise ValueError("need at least one tree")
    g = topo.graph
    if not nx.is_connected(g):
        raise ValueError("topology graph is not connected")
    import zlib

    trees: List[nx.Graph] = []
    for t in range(n_trees):
        weighted = g.copy()
        # Deterministic per-tree weights from names (builtin hash() is salted
        # per process, so stable string digests are used instead).
        for u, v in weighted.edges:
            digest = zlib.crc32(f"{seed}:{t}:{min(u, v)}:{max(u, v)}".encode())
            weighted.edges[u, v]["w"] = digest
        trees.append(nx.minimum_spanning_tree(weighted, weight="w"))
    return trees


def tree_index(src: int, dst: int, flow_id: int, n_trees: int) -> int:
    """Which spanning tree a flow rides (same canonical hash as ECMP, so
    data and ACK agree).  Public because PFC deadlock analysis needs the
    tree -> traffic-class mapping (TCP-Bolt gives each tree its own
    priority class; buffer dependencies never cross classes)."""
    a, b = (src, dst) if src <= dst else (dst, src)
    return stable_hash64(a, b, flow_id) % n_trees


def install_spanning_trees(topo: "Topology", seed: int = 1) -> List[RoutingTables]:
    """Attach a router that hashes each flow onto one of :data:`N_TREES`
    spanning trees."""
    trees = build_trees(topo, N_TREES, seed)
    per_tree = [build_graph_tables(topo, tree) for tree in trees]
    tables = [rt.tables for rt in per_tree]
    n = len(tables)

    def router(sw: "Switch", pkt: "Packet") -> int:
        idx = tree_index(pkt.src, pkt.dst, pkt.flow_id, n)
        ports = tables[idx][sw.name][pkt.dst]
        return ports[0]  # unique path within a tree

    for sw in topo.switches:
        sw.router = router
    topo.n_spanning_trees = n
    return per_tree
