"""Topology builders: shapes, wiring, RTT arithmetic."""

import random

import pytest

from repro.routing.tables import bfs_distances
from repro.sim.engine import Simulator
from repro.topo.base import LinkSpec, Topology
from repro.topo.dumbbell import dumbbell
from repro.topo.fattree import fattree
from repro.topo.jellyfish import jellyfish, random_regular_edges
from repro.topo.parkinglot import congestion_at
from repro.topo.star import star
from repro.units import ACK_SIZE, DEFAULT_MTU, serialization_ps, us


class TestTopologyContainer:
    def test_duplicate_names_rejected(self, sim):
        topo = Topology(sim)
        topo.add_host("x")
        with pytest.raises(ValueError):
            topo.add_host("x")
        with pytest.raises(ValueError):
            topo.add_switch("x")

    def test_link_records_graph_metadata(self, sim):
        topo = Topology(sim, default_link=LinkSpec(200.0, us(2)))
        a = topo.add_host("a")
        s = topo.add_switch("s")
        topo.link(a, s)
        e = topo.adj["a"]["s"]
        assert topo.adj["s"]["a"] is e
        assert e["rate_gbps"] == 200.0
        assert e["prop_delay_ps"] == us(2)
        assert e["ports"]["a"] == 0

    def test_a_link_takes_its_own_delay(self, sim):
        topo = Topology(sim, default_link=LinkSpec(200.0, us(2)))
        topo.link(topo.add_host("a"), topo.add_switch("s"), prop_delay_ps=us(5))
        assert topo.adj["a"]["s"]["prop_delay_ps"] == us(5)

    def test_link_by_name(self, sim):
        topo = Topology(sim)
        topo.add_host("a")
        topo.add_switch("s")
        topo.link("a", "s")
        assert "s" in topo.adj["a"] and "a" in topo.adj["s"]

    def test_host_ids_sequential(self, sim):
        topo = Topology(sim)
        hosts = [topo.add_host(f"h{i}") for i in range(4)]
        assert [h.host_id for h in hosts] == [0, 1, 2, 3]


class TestBaseRtt:
    def test_single_switch_rtt_formula(self, sim):
        topo = star(sim, 2, link=LinkSpec(100.0, us(1.5)))
        rtt = topo.base_rtt_ps(0, 1)
        fwd = 2 * (serialization_ps(DEFAULT_MTU, 100.0) + us(1.5))
        back = 2 * (serialization_ps(ACK_SIZE, 100.0) + us(1.5))
        assert rtt == fwd + back

    def test_rtt_symmetric(self, sim):
        topo = dumbbell(sim, n_senders=2)
        assert topo.base_rtt_ps(0, 2) == topo.base_rtt_ps(2, 0)

    def test_bottleneck_rate(self, sim):
        topo = Topology(sim)
        a, b = topo.add_host("a"), topo.add_host("b")
        s = topo.add_switch("s")
        topo.link(a, s, rate_gbps=100.0)
        topo.link(s, b, rate_gbps=25.0)
        assert min(r for r, _ in topo.path_links(0, 1)) == 25.0


class TestDumbbell:
    def test_shape(self, sim):
        topo = dumbbell(sim, n_senders=3, n_switches=4)
        assert len(topo.hosts) == 4  # 3 senders + receiver
        assert len(topo.switches) == 4
        # Chain: senders all on sw0, receiver on sw3.
        assert "sw0" in topo.adj["sender0"]
        assert "receiver0" in topo.adj["sw3"]
        assert "sw2" not in topo.adj["sw0"]

    def test_receiver_is_last_host(self, sim):
        topo = dumbbell(sim, n_senders=2)
        assert topo.hosts[-1].name == "receiver0"

    def test_takes_a_strategy(self, sim):
        topo = dumbbell(sim, n_senders=2, lb="flowlet")
        assert {type(sw.lb).__name__ for sw in topo.switches} == {"FlowletLB"}

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            dumbbell(sim, n_senders=0)
        with pytest.raises(ValueError):
            dumbbell(sim, n_switches=0)


class TestParkingLot:
    def test_first_hop_congested_port(self, sim):
        topo = congestion_at(sim, "first")
        assert topo.congested_switch_index == 0

    def test_middle_and_last(self, sim):
        assert congestion_at(sim, "middle").congested_switch_index == 1
        topo = congestion_at(Simulator(), "last")
        assert topo.congested_switch_index == 2

    def test_sender1_attachment_varies(self, sim):
        t_first = congestion_at(sim, "first")
        assert "sw0" in t_first.adj["sender1"]
        t_last = congestion_at(Simulator(), "last")
        assert "sw2" in t_last.adj["sender1"]

    def test_unknown_location_rejected(self, sim):
        with pytest.raises(ValueError):
            congestion_at(sim, "everywhere")


class TestFatTree:
    def test_host_count_k4(self, sim):
        topo = fattree(sim, k=4)
        assert len(topo.hosts) == 4 ** 3 // 4 == 16
        assert len(topo.switches) == 4 + 4 * 4  # 4 cores + (2 agg + 2 tor) * 4 pods

    def test_every_host_path_exists(self, sim):
        topo = fattree(sim, k=4)
        dist = bfs_distances(topo.adj, "h_0_0_0")
        assert len(dist) == len(topo.adj)
        assert dist["h_3_1_1"] == 6  # up to core, down

    def test_intra_tor_path_short(self, sim):
        topo = fattree(sim, k=4)
        assert bfs_distances(topo.adj, "h_0_0_0")["h_0_0_1"] == 2

    def test_odd_k_rejected(self, sim):
        with pytest.raises(ValueError):
            fattree(sim, k=3)

    def test_agg_to_core_wiring_consistent(self, sim):
        """agg_{pod}_{i} must reach exactly cores core_{i}_{*} — the wiring
        that makes sorted-list ECMP symmetric."""
        topo = fattree(sim, k=4)
        for pod in range(4):
            for i in range(2):
                cores = {
                    n for n in topo.adj["agg_" + f"{pod}_{i}"] if n.startswith("core")
                }
                assert cores == {f"core_{i}_0", f"core_{i}_1"}


class TestStar:
    def test_shape(self, sim):
        topo = star(sim, 5)
        assert len(topo.hosts) == 5
        assert len(topo.switches) == 1
        assert len(topo.adj["sw0"]) == 5

    def test_needs_two_hosts(self, sim):
        with pytest.raises(ValueError):
            star(sim, 1)


class TestJellyfish:
    def test_regular_degree(self, sim):
        topo = jellyfish(sim, n_switches=8, switch_degree=4, hosts_per_switch=1)
        for sw in topo.switches:
            # switch_degree fabric links + 1 host link
            assert len(topo.adj[sw.name]) == 5

    def test_deterministic_given_seed(self):
        from repro.sim.rng import SeedSequenceFactory

        t1 = jellyfish(Simulator(), seeds=SeedSequenceFactory(5))
        t2 = jellyfish(Simulator(), seeds=SeedSequenceFactory(5))
        assert [e[:2] for e in t1.edges()] == [e[:2] for e in t2.edges()]

    def test_generator_draws_what_networkx_draws(self):
        """The wiring is networkx's random_regular_graph, ported: the same
        edges from the same seed, restarts included."""
        nx = pytest.importorskip("networkx")
        cases = 0
        for d in range(3, 7):
            for n in range(8, 21):
                if n * d % 2:
                    continue
                for seed in range(50):
                    want = sorted(nx.random_regular_graph(d, n, seed=seed).edges)
                    got = sorted(random_regular_edges(d, n, random.Random(seed)))
                    assert got == want, (d, n, seed)
                    cases += 1
        assert cases == 2000

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            jellyfish(sim, n_switches=4, switch_degree=4)
        with pytest.raises(ValueError):
            jellyfish(sim, n_switches=6, switch_degree=-2)
        with pytest.raises(ValueError):
            jellyfish(sim, n_switches=5, switch_degree=3)
