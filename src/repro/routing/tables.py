"""Next-hop table computation shared by the routing installers.

Tables map ``switch name -> destination host id -> sorted list of egress
port indices`` (one entry for single-path, several for ECMP).  Distances are
hop counts computed by BFS from each host, which is exact for the paper's
equal-rate fabrics.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.topo.base import Topology

# ``name -> {neighbour -> link attrs}``: Topology.adj, or an nx.Graph (a
# spanning tree) — both answer ``g[u]`` and ``g[u][v]["ports"]``.
Adjacency = Mapping[str, Mapping[str, dict]]


class RoutingTables:
    """Computed next-hop tables plus the graph they were derived from."""

    __slots__ = ("graph", "tables")

    def __init__(self, graph: Adjacency, tables: Dict[str, Dict[int, List[int]]]) -> None:
        self.graph = graph
        self.tables = tables

    def ports_for(self, switch_name: str, dst_host_id: int) -> List[int]:
        entry = self.tables.get(switch_name)
        if entry is None:
            raise KeyError(f"no table for switch {switch_name}")
        ports = entry.get(dst_host_id)
        if not ports:
            raise KeyError(f"{switch_name}: no route to host {dst_host_id}")
        return ports


def bfs_distances(graph: Adjacency, source: str) -> Dict[str, int]:
    """Hop count from ``source`` to every node it reaches."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in graph[u]:
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return dist


def build_graph_tables(
    topo: "Topology", graph: Optional[Adjacency] = None
) -> RoutingTables:
    """Equal-cost next-hop tables on ``graph`` (default: the full topology,
    read from its adjacency map).

    Hosts never forward, so only switches get entries.  Next-hop lists are
    sorted by neighbor name: the consistent ordering that makes canonical
    ECMP hashing pick mirror-image paths in both directions (Fig. 5).
    """
    g = graph if graph is not None else topo.adj
    tables: Dict[str, Dict[int, List[int]]] = {sw.name: {} for sw in topo.switches}
    for host in topo.hosts:
        if host.name not in g:
            continue
        dist = bfs_distances(g, host.name)
        for sw in topo.switches:
            if sw.name not in dist:
                continue
            d = dist[sw.name]
            next_hops = sorted(
                v for v in g[sw.name] if dist.get(v, 1 << 30) == d - 1
            )
            ports = [g[sw.name][v]["ports"][sw.name] for v in next_hops]
            tables[sw.name][host.host_id] = ports
    return RoutingTables(g, tables)
