"""Routing: table computation, ECMP selection, and — the FNCC-critical
property — path symmetry between data packets and their ACKs."""

import zlib

import pytest

from repro.net.packet import ACK, DATA, Packet
from repro.routing.ecmp import install_ecmp
from repro.routing.spanning_tree import build_trees, install_spanning_trees
from repro.routing.tables import bfs_distances, build_graph_tables
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequenceFactory
from repro.topo.dumbbell import dumbbell
from repro.topo.fattree import fattree
from repro.topo.jellyfish import jellyfish
from repro.topo.parkinglot import congestion_at
from repro.topo.star import star


def trace_path(topo, src, dst, flow_id, kind=DATA):
    """Follow routing decisions switch by switch; returns switch names."""
    pkt = Packet(kind, flow_id=flow_id, src=src, dst=dst)
    # Entry switch: the switch adjacent to the source host.
    host = topo.hosts[src].name
    current = next(iter(topo.adj[host]))
    names = []
    guard = 0
    while True:
        guard += 1
        assert guard < 32, "routing loop"
        sw = topo.node(current)
        names.append(current)
        out_port = sw.router(sw, pkt)
        peer = sw.ports[out_port].peer.node
        if peer.name == topo.hosts[dst].name:
            return names
        current = peer.name


class TestTables:
    def test_dumbbell_next_hops(self, sim):
        topo = dumbbell(sim, n_senders=2, n_switches=3)
        tables = build_graph_tables(topo)
        recv = topo.hosts[-1].host_id
        # sw0 must route to the receiver via sw1 (single path).
        ports = tables["sw0"][recv]
        assert len(ports) == 1

    def test_fattree_has_equal_cost_choices(self, sim):
        topo = fattree(sim, k=4)
        tables = build_graph_tables(topo)
        # A ToR reaching a remote pod has k/2 = 2 uplink choices.
        remote_host = topo.node("h_3_0_0").host_id
        assert len(tables["tor_0_0"][remote_host]) == 2


def per_host_tables(topo, graph=None):
    """The reference: one BFS per host, every switch's next hops read off
    that host's own distances (what ``build_graph_tables`` did before it
    walked once per attachment switch)."""
    g = graph if graph is not None else topo.adj
    tables = {sw.name: {} for sw in topo.switches}
    for host in topo.hosts:
        if host.name not in g:
            continue
        dist = bfs_distances(g, host.name)
        for sw in topo.switches:
            if sw.name not in dist:
                continue
            d = dist[sw.name]
            next_hops = sorted(v for v in g[sw.name] if dist.get(v, 1 << 30) == d - 1)
            tables[sw.name][host.host_id] = [
                g[sw.name][v]["ports"][sw.name] for v in next_hops
            ]
    return tables


def same_tables(got, want):
    """Equal including insertion order, which fixes iteration order for
    every consumer (``split_tables``, the LB installers)."""
    return got == want and repr(got) == repr(want)


class TestTablesMatchPerHostWalk:
    @pytest.mark.parametrize("build", [
        lambda sim: fattree(sim, k=4),
        lambda sim: fattree(sim, k=8),
        lambda sim: star(sim, n_hosts=6),
        lambda sim: dumbbell(sim, n_senders=3, n_switches=3),
        lambda sim: congestion_at(sim, "middle", n_switches=4),
        lambda sim: jellyfish(sim, n_switches=10, switch_degree=4, hosts_per_switch=2,
                              seeds=SeedSequenceFactory(1)),
        lambda sim: jellyfish(sim, n_switches=10, switch_degree=4, hosts_per_switch=2,
                              seeds=SeedSequenceFactory(2)),
        lambda sim: jellyfish(sim, n_switches=12, switch_degree=3, hosts_per_switch=1,
                              seeds=SeedSequenceFactory(3)),
    ], ids=["fattree4", "fattree8", "star", "dumbbell", "parkinglot",
            "jellyfish1", "jellyfish2", "jellyfish3"])
    def test_full_topology(self, sim, build):
        topo = build(sim)
        assert same_tables(build_graph_tables(topo), per_host_tables(topo))

    def test_spanning_tree_graph(self, sim):
        topo = jellyfish(sim, n_switches=10, switch_degree=4, hosts_per_switch=2)
        for tree in build_trees(topo, 3, seed=1):
            got = build_graph_tables(topo, tree)
            assert same_tables(got, per_host_tables(topo, tree))

    def test_entries_do_not_alias(self, sim):
        topo = fattree(sim, k=4)
        tables = build_graph_tables(topo)
        a, b = topo.node("h_0_0_0").host_id, topo.node("h_0_0_1").host_id
        assert tables["core_0_0"][a] == tables["core_0_0"][b]
        assert tables["core_0_0"][a] is not tables["core_0_0"][b]

    def _dumbbell_adj(self, sim):
        topo = dumbbell(sim, n_senders=2, n_switches=3)
        g = {u: dict(nbrs) for u, nbrs in topo.adj.items()}

        def wire(u, v):
            g[u][v] = g[v][u] = {"ports": {u: 70, v: 80}}

        return topo, g, wire

    def test_multi_homed_host_keeps_its_own_walk(self, sim):
        topo, g, wire = self._dumbbell_adj(sim)
        wire(topo.hosts[0].name, "sw2")
        want = per_host_tables(topo, g)
        assert same_tables(build_graph_tables(topo, g), want)
        # The second uplink really is a shorter way in: sw2 now reaches
        # the host directly, where the attachment-switch walk would not.
        assert want["sw2"][topo.hosts[0].host_id] == [80]

    def test_host_wired_to_host_keeps_its_own_walk(self, sim):
        topo, g, wire = self._dumbbell_adj(sim)
        a, b = topo.hosts[0].name, topo.hosts[1].name
        wire(a, b)
        assert same_tables(build_graph_tables(topo, g), per_host_tables(topo, g))
        # Now b hangs off a alone: single-homed, but not to a switch.
        (sw,) = (v for v in g[b] if v != a)
        del g[sw][b], g[b][sw]
        assert same_tables(build_graph_tables(topo, g), per_host_tables(topo, g))

    def test_host_missing_from_graph_gets_no_entries(self, sim):
        topo, g, _wire = self._dumbbell_adj(sim)
        gone = topo.hosts[1]
        for v in g.pop(gone.name):
            del g[v][gone.name]
        got = build_graph_tables(topo, g)
        assert same_tables(got, per_host_tables(topo, g))
        assert all(gone.host_id not in entry for entry in got.values())


class TestEcmp:
    def test_same_flow_same_path(self, sim):
        topo = fattree(sim, k=4)
        a = topo.node("h_0_0_0").host_id
        b = topo.node("h_2_1_0").host_id
        p1 = trace_path(topo, a, b, flow_id=7)
        p2 = trace_path(topo, a, b, flow_id=7)
        assert p1 == p2

    def test_different_flows_spread(self, sim):
        topo = fattree(sim, k=4)
        a = topo.node("h_0_0_0").host_id
        b = topo.node("h_2_1_0").host_id
        paths = {tuple(trace_path(topo, a, b, flow_id=f)) for f in range(32)}
        assert len(paths) > 1  # load is actually balanced

    def test_symmetric_ack_path_fattree(self, sim):
        """Observation 2: the ACK must traverse the same switches in reverse."""
        topo = fattree(sim, k=4)
        a = topo.node("h_0_0_0").host_id
        b = topo.node("h_2_1_0").host_id
        for flow_id in range(24):
            data_path = trace_path(topo, a, b, flow_id, kind=DATA)
            ack_path = trace_path(topo, b, a, flow_id, kind=ACK)
            assert ack_path == data_path[::-1], f"flow {flow_id} asymmetric"

    def test_k8_symmetry_spot_check(self):
        sim = Simulator()
        topo = fattree(sim, k=8)
        a = topo.node("h_0_0_0").host_id
        b = topo.node("h_7_3_3").host_id
        for flow_id in range(8):
            data_path = trace_path(topo, a, b, flow_id)
            ack_path = trace_path(topo, b, a, flow_id, kind=ACK)
            assert ack_path == data_path[::-1]


def tree_links(tree):
    """A spanning tree's links, each as the set of its two ends."""
    return {frozenset((u, v)) for u, nbrs in tree.items() for v in nbrs}


class TestSpanningTrees:
    def test_trees_span_all_nodes(self, sim):
        topo = jellyfish(sim, n_switches=8, switch_degree=4)
        trees = build_trees(topo, 3, seed=1)
        for t in trees:
            assert list(t) == list(topo.adj)
            # connected with n - 1 links: a tree
            assert len(bfs_distances(t, "sw0")) == len(topo.adj)
            assert len(tree_links(t)) == len(topo.adj) - 1
            for u, nbrs in t.items():
                assert all(nbrs[v] is topo.adj[u][v] for v in nbrs)

    def test_trees_differ(self, sim):
        topo = jellyfish(sim, n_switches=10, switch_degree=4)
        trees = build_trees(topo, 4, seed=1)
        edge_sets = {frozenset(tree_links(t)) for t in trees}
        assert len(edge_sets) > 1

    @pytest.mark.parametrize("seed", [1, 9])
    def test_trees_are_networkx_minimum_spanning_trees(self, seed):
        """Kruskal over topo.edges() picks the links networkx's
        minimum_spanning_tree picks under the same crc32 weights."""
        nx = pytest.importorskip("networkx")
        fabrics = [fattree(Simulator(), k=4)] + [
            jellyfish(Simulator(), n_switches=10, switch_degree=4, seeds=SeedSequenceFactory(s))
            for s in range(1, 30)
        ]
        for topo in fabrics:
            g = nx.Graph(topo.adj)
            for t, tree in enumerate(build_trees(topo, 3, seed)):
                for u, v in g.edges:
                    w = zlib.crc32(f"{seed}:{t}:{min(u, v)}:{max(u, v)}".encode())
                    g.edges[u, v]["w"] = w
                want = {frozenset(e) for e in nx.minimum_spanning_tree(g, weight="w").edges}
                assert tree_links(tree) == want

    def test_symmetry_by_construction(self, sim):
        topo = jellyfish(sim, n_switches=8, switch_degree=4, hosts_per_switch=1)
        # jellyfish() installs spanning-tree routing already.
        n = len(topo.hosts)
        for flow_id in range(10):
            a, b = flow_id % n, (flow_id + 3) % n
            if a == b:
                continue
            data_path = trace_path(topo, a, b, flow_id)
            ack_path = trace_path(topo, b, a, flow_id, kind=ACK)
            assert ack_path == data_path[::-1]

    def test_tree_count_validated(self, sim):
        topo = jellyfish(sim)
        with pytest.raises(ValueError):
            build_trees(topo, 0, seed=1)

    def test_deterministic_trees(self, sim):
        topo = jellyfish(sim, n_switches=8, switch_degree=4)
        t1 = build_trees(topo, 2, seed=9)
        t2 = build_trees(topo, 2, seed=9)
        assert t1 == t2


class TestDuplicateFlowIds:
    def test_duplicate_flow_id_between_different_host_pairs(self, sim):
        """Flow ids are only unique per host: two flows sharing an id but
        connecting different host pairs must each route toward their own
        destination (regression for a cache keyed by flow_id alone)."""
        topo = fattree(sim, k=4)
        install_ecmp(topo)
        path_a = trace_path(topo, 0, 8, flow_id=7)
        path_b = trace_path(topo, 1, 12, flow_id=7)
        # Interleave the lookups so per-flow caches are warm and reused.
        assert trace_path(topo, 0, 8, flow_id=7) == path_a
        assert trace_path(topo, 1, 12, flow_id=7) == path_b
        # Each path must actually end at its own destination (trace_path
        # asserts delivery), and the ACK path must mirror its own flow.
        assert trace_path(topo, 8, 0, flow_id=7, kind=ACK) == path_a[::-1]
        assert trace_path(topo, 12, 1, flow_id=7, kind=ACK) == path_b[::-1]
