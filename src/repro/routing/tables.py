"""Next-hop table computation shared by the routing installers.

Tables map ``switch name -> destination host id -> sorted list of egress
port indices`` (one entry for single-path, several for ECMP).  Distances are
hop counts computed by BFS from each host, which is exact for the paper's
equal-rate fabrics.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.topo.base import Topology

# ``name -> {neighbour -> link attrs}``: Topology.adj, or a spanning tree
# of it in the same shape (routing.spanning_tree.build_trees).
Adjacency = Mapping[str, Mapping[str, dict]]

# ``switch name -> destination host id -> egress port indices``.
Tables = Dict[str, Dict[int, List[int]]]


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


#: ``(switch name, its egress ports towards one destination)``.
_Row = Tuple[str, List[int]]


def _next_hop_ports(g: Adjacency, switches: List[str], source: str) -> List[_Row]:
    """``(switch, egress ports towards source)`` for every switch that
    reaches ``source``, in ``switches`` order."""
    dist = bfs_distances(g, source)
    rows = []
    for name in switches:
        d = dist.get(name)
        if d is None:
            continue
        nbrs = g[name]
        next_hops = sorted(v for v in nbrs if dist.get(v, 1 << 30) == d - 1)
        rows.append((name, [nbrs[v]["ports"][name] for v in next_hops]))
    return rows


def build_graph_tables(topo: "Topology", graph: Optional[Adjacency] = None) -> Tables:
    """Equal-cost next-hop tables on ``graph`` (default: the full topology,
    read from its adjacency map).

    Hosts never forward, so only switches get entries.  Next-hop lists are
    sorted by neighbor name: the consistent ordering that makes canonical
    ECMP hashing pick mirror-image paths in both directions (Fig. 5).

    One BFS per *attachment switch*, not per host: every path to a host
    whose only neighbour is switch ``s`` ends ``... -> s -> host``, so its
    distances are ``s``'s plus one and every other switch's next hops
    towards it are that switch's next hops towards ``s`` — only ``s``'s own
    entry (the host port) differs.  A multi-homed host, or one wired to
    another host, is walked from itself.
    """
    g = graph if graph is not None else topo.adj
    switches = [sw.name for sw in topo.switches]
    tables: Tables = {name: {} for name in switches}
    towards: Dict[str, List[_Row]] = {}  # attachment switch -> rows, itself left out
    for host in topo.hosts:
        if host.name not in g:
            continue
        hid = host.host_id
        nbrs = list(g[host.name])
        if len(nbrs) == 1 and nbrs[0] in tables:
            s = nbrs[0]
            rows = towards.get(s)
            if rows is None:
                rows = towards[s] = [
                    row for row in _next_hop_ports(g, switches, s) if row[0] != s
                ]
            tables[s][hid] = [g[s][host.name]["ports"][s]]
        else:
            rows = _next_hop_ports(g, switches, host.name)
        for name, ports in rows:
            tables[name][hid] = ports[:]
    return tables
