"""Load-balancing strategies: interface wiring, per-strategy behavior,
bounded per-run state, and flowlet/epoch determinism."""

import pytest

from repro.lb import (
    ConWeaveLiteLB,
    EcmpLB,
    FlowletLB,
    LbConfig,
    SprayLB,
    STRATEGIES,
    install_lb,
)
from repro.net.packet import ACK, DATA, Packet
from repro.routing.ecmp import install_ecmp
from repro.routing.tables import build_graph_tables
from repro.sim.engine import Simulator
from repro.topo.fattree import fattree
from repro.topo.jellyfish import jellyfish
from repro.units import us

from tests.routing.test_routing import trace_path


def fresh_fattree(sim, lb, **kw):
    return fattree(sim, k=4, lb=LbConfig(lb, **kw) if isinstance(lb, str) else lb)


def data_pkt(src, dst, flow_id, seq=0):
    return Packet(DATA, flow_id=flow_id, src=src, dst=dst, seq=seq, size=1048, payload=1000)


class TestInstall:
    def test_registry_has_all_four(self):
        assert set(STRATEGIES) == {"ecmp", "spray", "flowlet", "conweave"}

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            LbConfig("valiant")

    def test_no_config_is_plain_ecmp(self, sim):
        topo = fattree(sim, k=4, lb="flowlet")
        install_lb(topo)
        assert {type(sw.lb) for sw in topo.switches} == {EcmpLB}

    def test_one_instance_per_switch(self, sim):
        topo = fresh_fattree(sim, "spray")
        lbs = [sw.lb for sw in topo.switches]
        assert all(isinstance(lb, SprayLB) for lb in lbs)
        assert len(set(map(id, lbs))) == len(lbs)  # no shared state

    def test_install_ecmp_back_compat(self, sim):
        topo = fattree(sim, k=4)
        assert isinstance(topo.switches[0].lb, EcmpLB)
        assert topo.lb_config.strategy == "ecmp"
        assert install_ecmp(topo) == build_graph_tables(topo)

    def test_per_run_ownership(self):
        """A fresh topology must never inherit a previous run's caches."""
        sim1 = Simulator()
        topo1 = fattree(sim1, k=4)
        trace_path(topo1, 0, 8, flow_id=3)
        assert any(sw.lb.hash_cache for sw in topo1.switches)
        sim2 = Simulator()
        topo2 = fattree(sim2, k=4)
        assert all(not sw.lb.hash_cache for sw in topo2.switches)

    def test_reorder_window_forced_on(self, sim):
        topo = fresh_fattree(sim, "spray")
        assert topo.transport_config.reorder_window_bytes > 0

    def test_ecmp_leaves_reorder_window_off(self, sim):
        topo = fattree(sim, k=4)
        assert topo.transport_config.reorder_window_bytes == 0


class TestEcmpBounded:
    def test_hash_cache_bounded(self, sim):
        topo = fattree(sim, k=4, lb=LbConfig("ecmp", max_cache_entries=32))
        tor = topo.node("tor_0_0")
        # More distinct flows than the cap: the cache must stay bounded.
        for fid in range(400):
            pkt = data_pkt(0, 8, fid)
            tor.router(tor, pkt)
        assert len(tor.lb.hash_cache) <= 32

    def test_bounded_cache_keeps_per_flow_stability(self, sim):
        topo = fattree(sim, k=4, lb=LbConfig("ecmp", max_cache_entries=8))
        a, b = 0, 8
        first = trace_path(topo, a, b, flow_id=5)
        for fid in range(100):  # churn the cache far past its cap
            trace_path(topo, a, b, flow_id=fid)
        assert trace_path(topo, a, b, flow_id=5) == first

    def test_the_ack_path_hash_memo_is_bounded(self):
        from repro.lb.base import make_flow_hash_port

        memo = {}
        port_of = make_flow_hash_port(memo, 2)
        first = [port_of(0, 8, fid, [1, 2], 2) for fid in range(5)]
        assert len(memo) <= 2
        assert [port_of(0, 8, fid, [1, 2], 2) for fid in range(5)] == first

    def test_a_destination_with_every_uplink_dead_keeps_its_pristine_entry(self, sim):
        topo = fattree(sim, k=4, lb=LbConfig("ecmp"))
        lb = topo.node("tor_0_0").lb
        dst = topo.node("h_2_1_0").host_id
        ports, _n = lb._pristine[dst]
        lb.on_link_down(ports[0])
        assert lb._split[dst] == ports[1]
        lb.on_link_down(ports[1])
        assert lb._split[dst] == lb._pristine[dst]  # a blackhole, not a reroute


class TestSpray:
    def test_round_robin_cycles_all_ports(self, sim):
        topo = fresh_fattree(sim, "spray")
        tor = topo.node("tor_0_0")
        remote = topo.node("h_2_0_0").host_id
        picks = {tor.router(tor, data_pkt(0, remote, 1)) for _ in range(8)}
        assert len(picks) == 2  # both uplinks used

    def test_acks_not_sprayed(self, sim):
        topo = fresh_fattree(sim, "spray")
        tor = topo.node("tor_0_0")
        remote = topo.node("h_2_0_0").host_id
        ack = Packet(ACK, flow_id=1, src=remote, dst=0, size=64)
        picks = {tor.router(tor, ack) for _ in range(8)}
        assert len(picks) == 1  # stable flow-hash path


class TestFlowlet:
    def test_same_flowlet_same_port(self, sim):
        topo = fresh_fattree(sim, "flowlet")
        tor = topo.node("tor_0_0")
        remote = topo.node("h_2_0_0").host_id
        picks = {tor.router(tor, data_pkt(0, remote, 1)) for _ in range(16)}
        assert len(picks) == 1  # no idle gap: one flowlet, one port

    def test_gap_opens_new_flowlet(self, sim):
        topo = fattree(sim, k=4, lb=LbConfig("flowlet", gap_ps=us(2)))
        tor = topo.node("tor_0_0")
        remote = topo.node("h_2_0_0").host_id
        tor.router(tor, data_pkt(0, remote, 1))
        starts_before = tor.lb.flowlet_starts
        sim.schedule(us(10), lambda _: None)
        sim.run()  # advance the clock past the gap
        tor.router(tor, data_pkt(0, remote, 1))
        assert tor.lb.flowlet_starts == starts_before + 1

    def test_boundary_determinism_fixed_seed(self):
        """Same seed, same arrival schedule -> identical flowlet port
        sequence and boundary count."""

        def run_once():
            sim = Simulator()
            topo = fattree(sim, k=4, lb=LbConfig("flowlet", gap_ps=us(2)))
            tor = topo.node("tor_0_0")
            remote = topo.node("h_2_0_0").host_id
            picks = []

            def hit(t_us):
                sim.schedule(
                    us(t_us),
                    lambda _: picks.append(tor.router(tor, data_pkt(0, remote, 1))),
                )

            for t in (0, 1, 5, 6, 14, 30, 31):
                hit(t)
            sim.run()
            return picks, tor.lb.flowlet_starts

        assert run_once() == run_once()

    def test_conga_mode_prefers_uncongested_port(self, sim):
        topo = fattree(sim, k=4, lb=LbConfig("flowlet", gap_ps=us(1)))
        tor = topo.node("tor_0_0")
        remote = topo.node("h_2_0_0").host_id
        first = tor.router(tor, data_pkt(0, remote, 1))
        # Load the chosen uplink (paused so the backlog stands still), then
        # open a flowlet boundary: the next flowlet must escape to the
        # other uplink.
        tor.ports[first].pause(0)
        for i in range(20):
            tor.ports[first].enqueue(data_pkt(0, remote, 99, seq=i * 1000))
        sim.schedule(us(5), lambda _: None)
        sim.run()
        second = tor.router(tor, data_pkt(0, remote, 1))
        assert second != first

    def test_table_bounded(self, sim):
        topo = fattree(sim, k=4, lb=LbConfig("flowlet", max_cache_entries=16))
        tor = topo.node("tor_0_0")
        remote = topo.node("h_2_0_0").host_id
        for fid in range(200):
            tor.router(tor, data_pkt(0, remote, fid))
        assert len(tor.lb.flowlets) <= 16


class TestConWeaveLite:
    def build(self, sim, **kw):
        return fattree(sim, k=4, lb=LbConfig("conweave", **kw))

    def test_tor_stamps_epoch_tag(self, sim):
        topo = self.build(sim)
        tor = topo.node("tor_0_0")
        remote = topo.node("h_2_0_0").host_id
        pkt = data_pkt(0, remote, 1)
        pkt.hops = 1  # as Switch.receive would set at the first switch
        tor.router(tor, pkt)
        assert pkt.lb_tag == 0

    def test_downstream_obeys_tag(self, sim):
        topo = self.build(sim)
        agg = topo.node("agg_0_0")
        remote = topo.node("h_2_0_0").host_id
        by_tag = {}
        for tag in range(8):
            pkt = data_pkt(0, remote, 1)
            pkt.hops = 2  # downstream hop
            pkt.lb_tag = tag
            by_tag[tag] = agg.router(agg, pkt)
        assert len(set(by_tag.values())) == 2  # both cores reachable
        # Same tag must always map to the same port (path pinning).
        for tag, port in by_tag.items():
            pkt = data_pkt(0, remote, 7777)
            pkt.hops = 2
            pkt.lb_tag = tag
            # Different flow id -> different hash; same flow id, same tag:
            pkt2 = data_pkt(0, remote, 1)
            pkt2.hops = 2
            pkt2.lb_tag = tag
            assert agg.router(agg, pkt2) == port

    def test_reroute_marks_tail_and_bumps_epoch(self, sim):
        topo = self.build(
            sim, probe_interval_ps=us(1), min_epoch_gap_ps=us(1), threshold_ps=0
        )
        tor = topo.node("tor_0_0")
        remote = topo.node("h_2_0_0").host_id
        p0 = data_pkt(0, remote, 1)
        p0.hops = 1
        first_port = tor.router(tor, p0)
        # Congest the current uplink (paused: standing backlog) so the
        # probe sees an asymmetry.
        tor.ports[first_port].pause(0)
        for i in range(40):
            tor.ports[first_port].enqueue(data_pkt(0, remote, 99, seq=i * 1000))
        sim.schedule(us(3), lambda _: None)
        sim.run()
        p1 = data_pkt(0, remote, 1, seq=1000)
        p1.hops = 1
        tail_port = tor.router(tor, p1)
        assert p1.lb_tail is True  # old epoch's tail rides the old path
        assert tail_port == first_port
        assert tor.lb.reroutes == 1
        p2 = data_pkt(0, remote, 1, seq=2000)
        p2.hops = 1
        new_port = tor.router(tor, p2)
        assert p2.lb_tag > p0.lb_tag
        assert p2.lb_tail is False
        assert new_port != first_port

    def test_epoch_hysteresis(self, sim):
        topo = self.build(
            sim, probe_interval_ps=us(1), min_epoch_gap_ps=us(1000), threshold_ps=0
        )
        tor = topo.node("tor_0_0")
        remote = topo.node("h_2_0_0").host_id
        p = data_pkt(0, remote, 1)
        p.hops = 1
        port = tor.router(tor, p)
        tor.ports[port].pause(0)
        for i in range(40):
            tor.ports[port].enqueue(data_pkt(0, remote, 99, seq=i * 1000))
        sim.schedule(us(3), lambda _: None)
        sim.run()
        p1 = data_pkt(0, remote, 1, seq=1000)
        p1.hops = 1
        tor.router(tor, p1)
        assert tor.lb.reroutes == 0  # epoch too young to reroute

    def test_flow_table_bounded(self, sim):
        topo = self.build(sim, max_cache_entries=16)
        tor = topo.node("tor_0_0")
        remote = topo.node("h_2_0_0").host_id
        for fid in range(200):
            pkt = data_pkt(0, remote, fid)
            pkt.hops = 1
            tor.router(tor, pkt)
        assert len(tor.lb.flows) <= 16


class TestPathDiversity:
    """Multi-path invariants: the fabric actually offers the choices the
    strategies are supposed to exploit."""

    def test_fattree_diversity_counts(self, sim):
        topo = fattree(sim, k=4)
        tables = build_graph_tables(topo)
        inter_pod = topo.node("h_2_0_0").host_id
        intra_pod = topo.node("h_0_1_0").host_id
        same_tor = topo.node("h_0_0_1").host_id
        assert len(tables["tor_0_0"][inter_pod]) == 2  # k/2 uplinks
        assert len(tables["agg_0_0"][inter_pod]) == 2  # k/2 cores
        assert len(tables["tor_0_0"][intra_pod]) == 2
        assert len(tables["tor_0_0"][same_tor]) == 1

    def test_jellyfish_has_multipath_under_lb(self, sim):
        topo = jellyfish(
            sim, n_switches=8, switch_degree=4, hosts_per_switch=2, lb=LbConfig("ecmp")
        )
        tables = build_graph_tables(topo)  # what install_lb routes by
        multi = sum(
            1
            for sw in topo.switches
            for dst in range(len(topo.hosts))
            if len(tables[sw.name].get(dst, [])) > 1
        )
        assert multi > 0  # the random regular graph offers real choices

    def test_ecmp_symmetry_preserved_under_new_interface(self, sim):
        """The Fig. 5 property must survive the LB refactor byte-for-byte."""
        topo = fattree(sim, k=4)
        a = topo.node("h_0_0_0").host_id
        b = topo.node("h_2_1_0").host_id
        for flow_id in range(24):
            data_path = trace_path(topo, a, b, flow_id, kind=DATA)
            ack_path = trace_path(topo, b, a, flow_id, kind=ACK)
            assert ack_path == data_path[::-1]

    def test_spray_keeps_acks_deliverable(self, sim):
        """Even under spray, ACK routing must reach the sender (stable
        flow-hash fallback)."""
        topo = fresh_fattree(sim, "spray")
        a = topo.node("h_0_0_0").host_id
        b = topo.node("h_2_1_0").host_id
        path = trace_path(topo, b, a, flow_id=3, kind=ACK)
        assert path  # trace_path asserts delivery internally
