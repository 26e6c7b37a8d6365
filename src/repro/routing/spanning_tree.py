"""Multiple-spanning-tree routing (Fig. 6, after TCP-Bolt).

Each tree has a unique path between any pair of nodes, so data and ACK
paths are identical by construction — no hash symmetry needed.  Trees are
minimum spanning trees under independent random edge weights, which yields
diverse trees on path-diverse topologies (Jellyfish, fat-tree).
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, List

from repro.routing.tables import Adjacency, Tables, bfs_distances, build_graph_tables
from repro.sim.rng import stable_hash64

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.net.switch import Switch
    from repro.topo.base import Topology

#: Spanning trees :func:`install_spanning_trees` builds (flows hash onto one).
N_TREES = 3


def build_trees(topo: "Topology", n_trees: int, seed: int) -> List[Adjacency]:
    """``n_trees`` spanning trees of the topology, deterministic in ``seed``,
    each an adjacency map shaped like ``topo.adj`` (its links' attrs shared
    with it).  Host access links appear in every tree (hosts are leaves)."""
    if n_trees < 1:
        raise ValueError("need at least one tree")
    adj = topo.adj
    if len(bfs_distances(adj, next(iter(adj)))) < len(adj):
        raise ValueError("topology graph is not connected")
    trees = []
    for t in range(n_trees):
        # Kruskal: links by a per-tree weight (a stable string digest, as
        # builtin hash() is salted per process), ties in topo.edges() order.
        links = sorted(
            topo.edges(),
            key=lambda e: zlib.crc32(f"{seed}:{t}:{min(e[:2])}:{max(e[:2])}".encode()),
        )
        tree: Dict[str, Dict[str, dict]] = {u: {} for u in adj}
        frag = {u: [u] for u in adj}  # node -> the nodes of its tree fragment
        for u, v, attrs in links:
            a, b = frag[u], frag[v]
            if a is not b:
                a += b
                frag.update(dict.fromkeys(b, a))
                tree[u][v] = tree[v][u] = attrs
        trees.append(tree)
    return trees


def tree_index(src: int, dst: int, flow_id: int, n_trees: int) -> int:
    """Which spanning tree a flow rides (same canonical hash as ECMP, so
    data and ACK agree).  Public because PFC deadlock analysis needs the
    tree -> traffic-class mapping (TCP-Bolt gives each tree its own
    priority class; buffer dependencies never cross classes)."""
    a, b = (src, dst) if src <= dst else (dst, src)
    return stable_hash64(a, b, flow_id) % n_trees


def install_spanning_trees(topo: "Topology", seed: int = 1) -> List[Tables]:
    """Attach a router that hashes each flow onto one of :data:`N_TREES`
    spanning trees."""
    trees = build_trees(topo, N_TREES, seed)
    tables = [build_graph_tables(topo, tree) for tree in trees]
    n = len(tables)

    def router(sw: "Switch", pkt: "Packet") -> int:
        idx = tree_index(pkt.src, pkt.dst, pkt.flow_id, n)
        ports = tables[idx][sw.name][pkt.dst]
        return ports[0]  # unique path within a tree

    for sw in topo.switches:
        sw.router = router
    topo.n_spanning_trees = n
    return tables
