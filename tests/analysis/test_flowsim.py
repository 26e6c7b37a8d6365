"""Flow-level max-min simulator: fairness math, events, packet-sim parity."""

import pytest

from repro.analysis.flowsim import FlowLevelSimulator, from_topology
from repro.sim.engine import Simulator
from repro.topo.dumbbell import dumbbell
from repro.topo.fattree import fattree
from repro.transport.flow import Flow
from repro.units import MB, SEC, us


def simple_sim():
    fls = FlowLevelSimulator()
    fls.add_link("a", "s", 100.0, us(1))
    fls.add_link("b", "s", 100.0, us(1))
    fls.add_link("s", "r", 100.0, us(1))
    return fls


def path_via_s(flow):
    src = "a" if flow.src == 0 else "b"
    return [(src, "s"), ("s", "r")]


class TestMaxMin:
    def test_single_flow_gets_line_rate(self):
        fls = simple_sim()
        res = fls.run([Flow(0, 0, 9, 10 * MB)], path_via_s)
        assert len(res.records) == 1
        # 10 MB at 100 Gb/s ~ 800 us (+ base latency); slowdown ~ 1.
        assert res.records[0].slowdown == pytest.approx(1.0, abs=0.02)

    def test_two_flows_share_bottleneck(self):
        fls = simple_sim()
        res = fls.run(
            [Flow(0, 0, 9, 10 * MB), Flow(1, 1, 9, 10 * MB)], path_via_s
        )
        for rec in res.records:
            assert rec.slowdown == pytest.approx(2.0, rel=0.05)

    def test_unequal_paths_max_min(self):
        # Flow A crosses both links; flow B only the second.  Capacities:
        # first link 10G, second 100G.  A is capped at 10, B gets 90.
        fls = FlowLevelSimulator()
        fls.add_link("x", "m", 10.0)
        fls.add_link("m", "y", 100.0)
        flows = [Flow(0, 0, 9, 10 * MB), Flow(1, 1, 9, 10 * MB)]

        def paths(flow):
            return [("x", "m"), ("m", "y")] if flow.flow_id == 0 else [("m", "y")]

        res = fls.run(flows, paths)
        rec = {r.flow.flow_id: r for r in res.records}
        # B finishes ~9x sooner than A (90 vs 10 Gb/s).
        assert rec[0].fct_ps / rec[1].fct_ps == pytest.approx(9.0, rel=0.15)

    def test_staggered_arrival_rates_adapt(self):
        fls = simple_sim()
        flows = [
            Flow(0, 0, 9, 10 * MB),
            Flow(1, 1, 9, 10 * MB, start_ps=us(400)),
        ]
        res = fls.run(flows, path_via_s)
        rec = {r.flow.flow_id: r for r in res.records}
        # Flow 0 ran alone for 400 us then shared: faster than a full share.
        assert rec[0].slowdown < 2.0
        assert rec[1].slowdown == pytest.approx(2.0, rel=0.25)

    def test_flow_conservation(self):
        fls = simple_sim()
        flows = [Flow(i, i % 2, 9, (i + 1) * MB) for i in range(6)]
        res = fls.run(flows, path_via_s)
        assert len(res.records) == 6

    def test_unknown_link_rejected(self):
        fls = simple_sim()
        with pytest.raises(KeyError):
            fls.run([Flow(0, 0, 9, MB)], lambda f: [("nope", "s")])

    def test_empty_path_rejected(self):
        fls = simple_sim()
        with pytest.raises(ValueError):
            fls.run([Flow(0, 0, 9, MB)], lambda f: [])

    def test_bad_link_rate_rejected(self):
        fls = FlowLevelSimulator()
        with pytest.raises(ValueError):
            fls.add_link("a", "b", 0.0)


class TestFromTopology:
    def test_dumbbell_parity_with_packet_sim(self):
        """Two equal elephants: the flow-level model and the packet sim must
        agree on the slowdown within the CC's eta-utilization overhead."""
        from helpers import make_dumbbell
        from repro.experiments.common import launch_flows

        # Flow-level.
        sim = Simulator()
        topo = dumbbell(sim, n_senders=2)
        fls, path_fn = from_topology(topo)
        recv = topo.hosts[-1].host_id
        flows = [Flow(0, 0, recv, 5 * MB), Flow(1, 1, recv, 5 * MB)]
        flow_res = fls.run(flows, path_fn)
        flow_slow = sorted(r.slowdown for r in flow_res.records)

        # Packet-level (FNCC).
        sim2 = Simulator()
        topo2, env = make_dumbbell(sim2, cc="fncc")
        from repro.metrics.fct import FctCollector

        col = FctCollector(topo2)
        recv2 = topo2.hosts[-1].host_id
        launch_flows(
            topo2, [Flow(0, 0, recv2, 5 * MB), Flow(1, 1, recv2, 5 * MB)], env
        )
        sim2.run(until=us(20_000))
        pkt_slow = sorted(r.slowdown for r in col.records)
        assert len(pkt_slow) == 2
        # Ideal sharing says 2.0; the packet sim adds eta + transient costs.
        for fs, ps in zip(flow_slow, pkt_slow):
            assert ps == pytest.approx(fs, rel=0.25)

    def test_fattree_paths_respect_ecmp(self):
        topo = fattree(Simulator(), k=4)
        fls, path_fn = from_topology(topo)
        a = topo.node("h_0_0_0").host_id
        b = topo.node("h_2_1_0").host_id
        p1 = path_fn(Flow(7, a, b, MB))
        p2 = path_fn(Flow(7, a, b, MB))
        assert p1 == p2  # deterministic per flow
        assert len(p1) == 6  # host-tor-agg-core-agg-tor-host

    def test_fattree_flowsim_runs_at_k8(self):
        from repro.experiments.paper_scale import run_flow_level

        table = run_flow_level(k=8, n_flows=200, seed=2)
        assert sum(table.row_counts().values()) + len(table.overflow) == 200
        assert table.aggregate("average") >= 1.0
