"""End-to-end sanity for every CC scheme on every topology family."""

import pytest

from helpers import make_dumbbell, run_one_flow
from repro.cc import ALGORITHMS
from repro.experiments.common import build_cc_env, launch_flows
from repro.metrics.fct import FctCollector
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequenceFactory
from repro.topo.fattree import fattree
from repro.topo.jellyfish import jellyfish
from repro.topo.star import star
from repro.traffic.generator import incast_flows, permutation_flows
from repro.transport.flow import Flow
from repro.units import KB, MB, us


class TestSingleFlowAllCcs:
    @pytest.mark.parametrize("cc", sorted(ALGORITHMS))
    def test_flow_completes(self, sim, cc):
        topo, env = make_dumbbell(sim, cc=cc)
        rqp = run_one_flow(sim, topo, env, size_bytes=1 * MB)
        assert rqp.completed

    @pytest.mark.parametrize("cc", sorted(ALGORITHMS))
    def test_no_drops_with_pfc(self, sim, cc):
        topo, env = make_dumbbell(sim, cc=cc)
        run_one_flow(sim, topo, env, size_bytes=1 * MB)
        assert sum(sw.drops for sw in topo.switches) == 0


class TestTwoElephants:
    @pytest.mark.parametrize("cc", ["fncc", "hpcc", "dcqcn"])
    def test_both_finish_and_share(self, sim, cc):
        topo, env = make_dumbbell(sim, cc=cc)
        recv = topo.hosts[-1].host_id
        flows = [Flow(0, 0, recv, 4 * MB), Flow(1, 1, recv, 4 * MB, start_ps=us(50))]
        launch_flows(topo, flows, env)
        sim.run(until=us(30_000))
        assert topo.hosts[recv].receivers[0].completed
        assert topo.hosts[recv].receivers[1].completed


class TestIncastOnStar:
    @pytest.mark.parametrize("cc", ["fncc", "hpcc", "dcqcn"])
    def test_8_to_1_lossless(self, sim, cc):
        env = build_cc_env(cc)
        topo = star(
            sim,
            9,
            switch_config=env.switch_config,
            seeds=SeedSequenceFactory(1),
            cnp_enabled=env.cnp_enabled,
        )
        env.post_install(topo)
        col = FctCollector(topo)
        flows = incast_flows(range(8), 8, 200 * KB)
        launch_flows(topo, flows, env)
        sim.run(until=us(5000))
        assert col.completed() == 8
        assert sum(sw.drops for sw in topo.switches) == 0


class TestFatTreePermutation:
    def test_permutation_all_complete(self, sim):
        env = build_cc_env("fncc")
        topo = fattree(
            sim, k=4, switch_config=env.switch_config, seeds=SeedSequenceFactory(2)
        )
        col = FctCollector(topo)
        flows = permutation_flows(
            range(len(topo.hosts)), 200 * KB, SeedSequenceFactory(3)
        )
        launch_flows(topo, flows, env)
        sim.run(until=us(10_000))
        assert col.completed() == len(topo.hosts)

    def test_cross_pod_flow_uses_symmetric_path(self, sim):
        """The FNCC sender must see a stable per-hop INT vector — only
        possible if ACKs retrace the data path (6 links -> 3 switch hops)."""
        env = build_cc_env("fncc")
        topo = fattree(
            sim, k=4, switch_config=env.switch_config, seeds=SeedSequenceFactory(2)
        )
        a = topo.node("h_0_0_0").host_id
        b = topo.node("h_3_1_1").host_id
        flow = Flow(0, a, b, 1 * MB)
        qps = launch_flows(topo, [flow], env)
        sim.run(until=us(5000))
        cc = qps[0].cc
        assert topo.hosts[b].receivers[0].completed
        assert len(cc.prev_records) == 5  # ToR, agg, core, agg, ToR


class TestJellyfishSpanningTrees:
    def test_flow_over_spanning_tree_routing(self, sim):
        env = build_cc_env("fncc")
        topo = jellyfish(
            sim,
            n_switches=8,
            switch_degree=4,
            hosts_per_switch=1,
            switch_config=env.switch_config,
            seeds=SeedSequenceFactory(4),
        )
        col = FctCollector(topo)
        flows = [Flow(i, i, (i + 3) % 8, 300 * KB) for i in range(8)]
        launch_flows(topo, flows, env)
        sim.run(until=us(10_000))
        assert col.completed() == 8


class TestConservation:
    @pytest.mark.parametrize("cc", ["fncc", "hpcc", "dcqcn"])
    def test_every_byte_delivered_exactly_once(self, sim, cc):
        topo, env = make_dumbbell(sim, cc=cc, n_senders=3)
        recv = topo.hosts[-1].host_id
        sizes = [777_777, 1_234_567, 2_000_000]
        flows = [Flow(i, i, recv, s) for i, s in enumerate(sizes)]
        launch_flows(topo, flows, env)
        sim.run(until=us(50_000))
        for i, s in enumerate(sizes):
            rqp = topo.hosts[recv].receivers[i]
            assert rqp.completed
            assert rqp.rcv_nxt == s
