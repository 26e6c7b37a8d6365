"""Path arithmetic on the adjacency map, and the order it lists the links
in, with networkx as the oracle where it is installed."""

import hashlib
import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequenceFactory
from repro.topo import (
    LinkSpec,
    Topology,
    congestion_at,
    dumbbell,
    fattree,
    jellyfish,
    star,
)
from repro.units import ACK_SIZE, DEFAULT_MTU, serialization_ps, us


def _jellyfish(seed):
    return jellyfish(
        Simulator(),
        n_switches=10,
        switch_degree=3,
        hosts_per_switch=2,
        seeds=SeedSequenceFactory(seed),
    )


FABRICS = {
    "fattree_k4": lambda: fattree(Simulator(), k=4),
    "fattree_k8": lambda: fattree(Simulator(), k=8),
    "star": lambda: star(Simulator(), n_hosts=9),
    "dumbbell": lambda: dumbbell(Simulator(), n_senders=3, n_switches=4),
    "parkinglot": lambda: congestion_at(Simulator(), "middle"),
    "jellyfish_s1": lambda: _jellyfish(1),
    "jellyfish_s2": lambda: _jellyfish(2),
    "jellyfish_s3": lambda: _jellyfish(3),
}


def _host_pairs(topo, limit=500):
    n = len(topo.hosts)
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    if len(pairs) > limit:
        pairs = random.Random(15).sample(pairs, limit)
    return pairs


def _oracle_path(topo, s, d):
    nx = pytest.importorskip("networkx")
    src, dst = topo.hosts[s].name, topo.hosts[d].name
    return min(nx.all_shortest_paths(nx.Graph(topo.adj), src, dst), key=tuple)


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_path_names_is_the_lexicographic_minimum_shortest_path(name):
    topo = FABRICS[name]()
    for s, d in _host_pairs(topo):
        assert topo.path_names(s, d) == _oracle_path(topo, s, d), (s, d)


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_rtt_and_bottleneck_follow_the_oracle_path(name):
    topo = FABRICS[name]()
    for s, d in _host_pairs(topo, limit=60):
        path = _oracle_path(topo, s, d)
        links = [
            (topo.adj[u][v]["rate_gbps"], topo.adj[u][v]["prop_delay_ps"])
            for u, v in zip(path, path[1:])
        ]
        assert topo.path_links(s, d) == links
        assert topo.base_rtt_ps(s, d) == sum(
            serialization_ps(DEFAULT_MTU, r) + serialization_ps(ACK_SIZE, r) + 2 * p
            for r, p in links
        )


def test_path_to_self_and_missing_path():
    topo = Topology(Simulator())
    topo.add_host("a")
    topo.add_host("b")
    assert topo.path_names(0, 0) == ["a"]
    with pytest.raises(ValueError, match="no path between a and b"):
        topo.path_names(0, 1)


def _ring(n=6):
    """Hosts a and b on opposite sides of a ring of ``n`` switches."""
    topo = Topology(Simulator(), default_link=LinkSpec(100.0, us(1.0)))
    a, b = topo.add_host("a"), topo.add_host("b")
    sws = [topo.add_switch(f"s{i}") for i in range(n)]
    for i in range(n):
        topo.link(sws[i], sws[(i + 1) % n])
    topo.link(a, sws[0])
    topo.link(b, sws[n // 2])
    return topo


def test_link_after_a_query_invalidates_the_distance_cache():
    topo = _ring()
    assert topo.path_names(0, 1) == ["a", "s0", "s1", "s2", "s3", "b"]
    rtt_before = topo.base_rtt_ps(0, 1)
    topo.link("s0", "s3", rate_gbps=40.0)
    assert topo.path_names(0, 1) == ["a", "s0", "s3", "b"]
    assert topo.base_rtt_ps(0, 1) < rtt_before
    assert min(r for r, _ in topo.path_links(0, 1)) == 40.0
    # a node added later is reachable too (its row was never cached stale)
    c = topo.add_host("c")
    topo.link(c, "s4")
    assert topo.path_names(0, c.host_id) == ["a", "s0", "s3", "s4", "c"]


# -- the link order ----------------------------------------------------------

# sha256 of the repr below for fattree(k=4), recorded from the commit whose
# Topology.graph was an eagerly maintained nx.Graph.
PARENT_FATTREE_K4_GRAPH = (
    "87ad96f35b1406d2df2376e9b7fae72301702e90a1144cf3525f24a3d5a8930a"
)


def _graph_repr(g):
    return (
        repr(list(g.nodes(data=True)))
        + "|"
        + repr(list(g.edges(data=True)))
        + "|"
        + repr({n: list(g[n]) for n in g})
    )


def _build_with_eager_graph(monkeypatch, build):
    """``build()``, with every add_host / add_switch / link mirrored into an
    nx.Graph as it happens: the graph an eagerly maintained view held."""
    nx = pytest.importorskip("networkx")
    eager = nx.Graph()
    add_host, add_switch, link = Topology.add_host, Topology.add_switch, Topology.link

    def host(self, name, *args, **kwargs):
        node = add_host(self, name, *args, **kwargs)
        eager.add_node(name, kind="host", host_id=node.host_id)
        return node

    def switch(self, name, *args, **kwargs):
        node = add_switch(self, name, *args, **kwargs)
        eager.add_node(name, kind="switch")
        return node

    def wire(self, a, b, *args, **kwargs):
        pa, pb = link(self, a, b, *args, **kwargs)
        u, v = pa.node.name, pb.node.name
        eager.add_edge(u, v, **self.adj[u][v])
        return pa, pb

    monkeypatch.setattr(Topology, "add_host", host)
    monkeypatch.setattr(Topology, "add_switch", switch)
    monkeypatch.setattr(Topology, "link", wire)
    return build(), eager


def test_adj_equals_the_parents_eager_graph(monkeypatch):
    topo, eager = _build_with_eager_graph(monkeypatch, lambda: fattree(Simulator(), k=4))
    assert (eager.number_of_nodes(), eager.number_of_edges()) == (36, 48)
    assert hashlib.sha256(_graph_repr(eager).encode()).hexdigest() == PARENT_FATTREE_K4_GRAPH
    assert {n: list(nbrs) for n, nbrs in topo.adj.items()} == {n: list(eager[n]) for n in eager}
    assert topo.adj["agg_0_0"]["core_0_0"]["ports"] == {"agg_0_0": 0, "core_0_0": 0}
    assert topo.adj["core_0_0"]["agg_0_0"] is topo.adj["agg_0_0"]["core_0_0"]


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_edges_lists_the_links_in_the_graph_views_order(monkeypatch, name):
    # Shard cut indices and flow-level link ids are positions in this order,
    # the order the eager networkx view listed its edges in.
    topo, eager = _build_with_eager_graph(monkeypatch, FABRICS[name])
    assert list(topo.edges()) == list(eager.edges(data=True))


def test_adj_matches_an_eager_graph_for_any_link_order():
    """Each node's neighbours in ``adj`` are in the order add_edge calls
    interleaved with construction would have left them — the order
    ``edges()`` and the routing walks rely on."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    for _ in range(20):
        topo = Topology(Simulator())
        eager = nx.Graph()
        names = [f"n{i}" for i in range(8)]
        for i, name in enumerate(names):
            if i % 3 == 0:
                topo.add_host(name)
            else:
                topo.add_switch(name)
            eager.add_node(name)
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        rng.shuffle(pairs)
        for a, b in pairs[: rng.randrange(5, len(pairs))]:
            if rng.random() < 0.5:
                a, b = b, a
            pa, pb = topo.link(a, b)
            eager.add_edge(
                a,
                b,
                ports={a: pa.index, b: pb.index},
                rate_gbps=100.0,
                prop_delay_ps=us(1.5),
            )
        assert {n: list(nbrs) for n, nbrs in topo.adj.items()} == {n: list(eager[n]) for n in eager}
        assert list(topo.edges()) == list(eager.edges(data=True))
