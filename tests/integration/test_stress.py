"""Stress & failure-injection: random mixed traffic, loss recovery without
PFC, and cross-CC coexistence."""

import random

import pytest

from helpers import make_dumbbell
from repro.experiments.common import build_cc_env, launch_flows
from repro.metrics.fct import FctCollector
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequenceFactory
from repro.topo.fattree import fattree
from repro.topo.star import star
from repro.transport.flow import Flow
from repro.transport.sender import TransportConfig
from repro.units import KB, MB, us


class TestRandomMixedTraffic:
    @pytest.mark.parametrize("seed", [11, 29, 47])
    def test_fattree_random_mesh_conserves_all_bytes(self, seed):
        rng = random.Random(seed)
        sim = Simulator()
        env = build_cc_env("fncc")
        topo = fattree(
            sim, k=4, switch_config=env.switch_config, seeds=SeedSequenceFactory(seed)
        )
        col = FctCollector(topo)
        n_hosts = len(topo.hosts)
        flows = []
        for i in range(40):
            src = rng.randrange(n_hosts)
            dst = rng.randrange(n_hosts - 1)
            if dst >= src:
                dst += 1
            flows.append(
                Flow(i, src, dst, rng.randrange(1 * KB, 500 * KB), start_ps=us(rng.uniform(0, 100)))
            )
        launch_flows(topo, flows, env)
        sim.run(until=us(50_000))
        assert col.completed() == 40
        for rec in col.records:
            assert rec.slowdown >= 0.999  # never faster than ideal
        assert sum(sw.drops for sw in topo.switches) == 0


class TestLossRecovery:
    def test_no_pfc_small_buffer_recovers_via_go_back_n(self, sim):
        """PFC off + tiny switch buffer: drops happen, go-back-N heals."""
        env = build_cc_env(
            "fncc", pfc_enabled=False, buffer_bytes=40 * KB
        )
        topo = star(
            sim,
            5,
            switch_config=env.switch_config,
            seeds=SeedSequenceFactory(1),
            transport_config=TransportConfig(retx_timeout_ps=us(100)),
        )
        col = FctCollector(topo)
        flows = [Flow(i, i, 4, 500 * KB) for i in range(4)]  # 4-to-1 incast
        launch_flows(topo, flows, env)
        sim.run(until=us(100_000))
        assert sum(sw.drops for sw in topo.switches) > 0, "scenario must drop"
        assert col.completed() == 4, "every flow must still finish"
        for i in range(4):
            assert topo.hosts[4].receivers[i].rcv_nxt == 500 * KB

    def test_retransmissions_counted(self, sim):
        env = build_cc_env("fncc", pfc_enabled=False, buffer_bytes=40 * KB)
        topo = star(
            sim,
            5,
            switch_config=env.switch_config,
            seeds=SeedSequenceFactory(2),
            transport_config=TransportConfig(retx_timeout_ps=us(100)),
        )
        flows = [Flow(i, i, 4, 500 * KB) for i in range(4)]
        qps = launch_flows(topo, flows, env)
        sim.run(until=us(100_000))
        assert sum(qp.timeouts for qp in qps.values()) > 0


class TestCoexistence:
    def test_mixed_cc_flows_share_one_fabric(self, sim):
        """Different flows can run different CC modules on the same fabric
        (switch config is FNCC's; HPCC flows simply see no usable INT on
        their data path and fall back to their seeded window)."""
        from repro.cc import make_cc_factory

        topo, env = make_dumbbell(sim, cc="fncc", n_senders=2)
        recv = topo.hosts[-1].host_id
        f0 = Flow(0, 0, recv, 2 * MB)
        f1 = Flow(1, 1, recv, 2 * MB)
        topo.hosts[recv].register_receiver(f0)
        topo.hosts[recv].register_receiver(f1)
        fncc = env.cc_factory(f0, topo.hosts[0])
        hpcc = make_cc_factory("hpcc")(f1, topo.hosts[1])
        topo.hosts[0].start_flow(f0, fncc, topo.base_rtt_ps(0, recv))
        topo.hosts[1].start_flow(f1, hpcc, topo.base_rtt_ps(1, recv))
        sim.run(until=us(30_000))
        assert topo.hosts[recv].receivers[0].completed
        assert topo.hosts[recv].receivers[1].completed

    def test_many_small_flows_one_host_pair(self, sim):
        """QP multiplexing: 50 concurrent flows between one pair."""
        topo, env = make_dumbbell(sim, cc="fncc", n_senders=1)
        recv = topo.hosts[-1].host_id
        flows = [Flow(i, 0, recv, 20 * KB) for i in range(50)]
        launch_flows(topo, flows, env)
        sim.run(until=us(20_000))
        done = sum(1 for r in topo.hosts[recv].receivers.values() if r.completed)
        assert done == 50
