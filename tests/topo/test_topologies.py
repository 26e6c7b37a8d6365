"""Topology builders: shapes, wiring, RTT arithmetic."""

import networkx as nx
import pytest

from repro.sim.engine import Simulator
from repro.topo.base import LinkSpec, Topology
from repro.topo.dumbbell import dumbbell
from repro.topo.fattree import fattree
from repro.topo.jellyfish import jellyfish
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
        e = topo.graph.edges["a", "s"]
        assert e["rate_gbps"] == 200.0
        assert e["prop_delay_ps"] == us(2)
        assert e["ports"]["a"] == 0

    def test_link_by_name(self, sim):
        topo = Topology(sim)
        topo.add_host("a")
        topo.add_switch("s")
        topo.link("a", "s")
        assert topo.graph.has_edge("a", "s")

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
        assert topo.bottleneck_gbps(0, 1) == 25.0


class TestDumbbell:
    def test_shape(self, sim):
        topo = dumbbell(sim, n_senders=3, n_switches=4)
        assert len(topo.hosts) == 4  # 3 senders + receiver
        assert len(topo.switches) == 4
        # Chain: senders all on sw0, receiver on sw3.
        assert topo.graph.has_edge("sender0", "sw0")
        assert topo.graph.has_edge("sw3", "receiver0")
        assert not topo.graph.has_edge("sw0", "sw2")

    def test_receiver_is_last_host(self, sim):
        topo = dumbbell(sim, n_senders=2)
        assert topo.hosts[-1].name == "receiver0"

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
        assert t_first.graph.has_edge("sender1", "sw0")
        t_last = congestion_at(Simulator(), "last")
        assert t_last.graph.has_edge("sender1", "sw2")

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
        g = topo.graph
        assert nx.is_connected(g)
        assert nx.shortest_path_length(g, "h_0_0_0", "h_3_1_1") == 6  # up to core, down

    def test_intra_tor_path_short(self, sim):
        topo = fattree(sim, k=4)
        assert nx.shortest_path_length(topo.graph, "h_0_0_0", "h_0_0_1") == 2

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
                    n for n in topo.graph["agg_" + f"{pod}_{i}"] if n.startswith("core")
                }
                assert cores == {f"core_{i}_0", f"core_{i}_1"}


class TestStar:
    def test_shape(self, sim):
        topo = star(sim, 5)
        assert len(topo.hosts) == 5
        assert len(topo.switches) == 1
        assert topo.graph.degree["sw0"] == 5

    def test_needs_two_hosts(self, sim):
        with pytest.raises(ValueError):
            star(sim, 1)


class TestJellyfish:
    def test_regular_degree(self, sim):
        topo = jellyfish(sim, n_switches=8, switch_degree=4, hosts_per_switch=1)
        for sw in topo.switches:
            # switch_degree fabric links + 1 host link
            assert topo.graph.degree[sw.name] == 5

    def test_deterministic_given_seed(self):
        from repro.sim.rng import SeedSequenceFactory

        t1 = jellyfish(Simulator(), seeds=SeedSequenceFactory(5))
        t2 = jellyfish(Simulator(), seeds=SeedSequenceFactory(5))
        assert sorted(t1.graph.edges) == sorted(t2.graph.edges)

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            jellyfish(sim, n_switches=4, switch_degree=4)
        with pytest.raises(ValueError):
            jellyfish(sim, n_switches=5, switch_degree=3)
