"""Samplers: cadence, values, and stop semantics."""

import pytest

from repro.metrics.monitors import (
    QueueSampler,
    RateSampler,
    UtilizationSampler,
    pause_frame_count,
)
from repro.units import us


def loaded_dumbbell(sim, cc="fncc"):
    from helpers import make_dumbbell
    from repro.experiments.common import launch_flows
    from repro.traffic.generator import staggered_elephants
    from repro.units import MB

    topo, env = make_dumbbell(sim, cc=cc)
    flows = staggered_elephants(
        [h.host_id for h in topo.hosts[:2]], topo.hosts[-1].host_id, 5 * MB, us(50)
    )
    qps = launch_flows(topo, flows, env)
    return topo, qps


class TestQueueSampler:
    def test_samples_at_cadence(self, sim):
        topo, qps = loaded_dumbbell(sim)
        mon = QueueSampler(sim, topo.switches[0].ports[0], interval_ps=us(2))
        sim.run(until=us(20))
        # offset=0 sample plus one every 2 us.
        assert len(mon.series.times) == 11

    def test_congested_port_sees_queue(self, sim):
        topo, qps = loaded_dumbbell(sim)
        sw = topo.switches[0]
        port_idx = topo.graph.edges["sw0", "sw1"]["ports"]["sw0"]
        mon = QueueSampler(sim, sw.ports[port_idx], interval_ps=us(1))
        sim.run(until=us(200))
        assert mon.series.max() > 0  # two senders into one egress must queue

    def test_stop_freezes_series(self, sim):
        topo, qps = loaded_dumbbell(sim)
        # Context-manager form: leaving the block stops the sampler, so a
        # raise mid-run can't leak an armed Periodic.
        with QueueSampler(sim, topo.switches[0].ports[0], interval_ps=us(1)) as mon:
            sim.run(until=us(10))
        n = len(mon.series.times)
        sim.run(until=us(50))
        assert len(mon.series.times) == n

    def test_exception_in_with_block_still_stops(self, sim):
        topo, qps = loaded_dumbbell(sim)
        with pytest.raises(RuntimeError):
            with QueueSampler(
                sim, topo.switches[0].ports[0], interval_ps=us(1)
            ) as mon:
                sim.run(until=us(10))
                raise RuntimeError("injected")
        n = len(mon.series.times)
        sim.run(until=us(50))
        assert len(mon.series.times) == n

    def test_engine_stop_monitors_disarms_all(self, sim):
        topo, qps = loaded_dumbbell(sim)
        a = QueueSampler(sim, topo.switches[0].ports[0], interval_ps=us(1))
        b = QueueSampler(sim, topo.switches[1].ports[0], interval_ps=us(2))
        sim.run(until=us(10))
        sim.stop_monitors()
        counts = (len(a.series.times), len(b.series.times))
        sim.run(until=us(50))
        assert (len(a.series.times), len(b.series.times)) == counts
        sim.stop_monitors()  # idempotent


class TestRateSampler:
    def test_zero_before_start_and_after_finish(self, sim):
        from repro.experiments.common import build_cc_env, launch_flows
        from helpers import make_dumbbell
        from repro.transport.flow import Flow

        topo, env = make_dumbbell(sim)
        flow = Flow(0, 0, topo.hosts[-1].host_id, 50_000, start_ps=us(20))
        qps = launch_flows(topo, [flow], env)
        mon = RateSampler(sim, qps[0], interval_ps=us(1))
        sim.run(until=us(200))
        assert mon.series.value_at(us(5)) == 0.0
        assert mon.series.value_at(us(199)) == 0.0  # finished by then
        assert mon.series.max() > 0.0

    def test_rate_capped_at_line(self, sim):
        topo, qps = loaded_dumbbell(sim)
        mon = RateSampler(sim, qps[0], interval_ps=us(1))
        sim.run(until=us(100))
        assert mon.series.max() <= 100.0


class TestUtilizationSampler:
    def test_full_rate_gives_unity(self, sim):
        topo, qps = loaded_dumbbell(sim)
        port_idx = topo.graph.edges["sw0", "sw1"]["ports"]["sw0"]
        mon = UtilizationSampler(sim, topo.switches[0].ports[port_idx], interval_ps=us(10))
        sim.run(until=us(300))
        assert mon.series.max() > 0.9
        assert all(v <= 1.0 for v in mon.series.values)

    def test_idle_gives_zero(self, sim):
        from helpers import make_dumbbell

        topo, env = make_dumbbell(sim)
        mon = UtilizationSampler(sim, topo.switches[0].ports[0], interval_ps=us(5))
        sim.run(until=us(50))
        assert mon.series.max() == 0.0


class TestPauseCount:
    def test_zero_without_congestion(self, sim):
        topo, qps = loaded_dumbbell(sim)
        sim.run(until=us(100))
        assert pause_frame_count(topo.switches) == 0

    def test_counts_accumulate_across_switches(self, sim):
        from helpers import make_dumbbell
        from repro.experiments.common import launch_flows
        from repro.traffic.generator import incast_flows
        from repro.units import KB, MB

        # Tiny PFC threshold + incast: pauses must fire.
        topo, env = make_dumbbell(sim, cc="dcqcn", pfc_xoff=20 * KB, n_senders=4)
        flows = incast_flows(
            [h.host_id for h in topo.hosts[:4]], topo.hosts[-1].host_id, 2 * MB
        )
        launch_flows(topo, flows, env)
        sim.run(until=us(300))
        assert pause_frame_count(topo.switches) > 0


class TestPfcFrameTotals:
    def test_ledger_balances_on_drained_run(self, sim):
        from helpers import make_dumbbell
        from repro.experiments.common import launch_flows
        from repro.metrics.monitors import pfc_frame_totals
        from repro.traffic.generator import incast_flows
        from repro.units import KB, us

        # PFC-heavy incast that runs to completion: once the fabric
        # drains, every PAUSE/RESUME frame sent was received exactly once
        # (hosts count XON now too — the asymmetric-accounting fix).
        topo, env = make_dumbbell(sim, cc="fncc", pfc_xoff=40 * KB, n_senders=4)
        flows = incast_flows(
            [h.host_id for h in topo.hosts[:4]], topo.hosts[-1].host_id, 400 * KB
        )
        launch_flows(topo, flows, env)
        sim.run(until=us(50_000))
        totals = pfc_frame_totals(list(topo.hosts) + list(topo.switches))
        assert totals["pause_sent"] > 0
        assert totals["resume_sent"] > 0
        assert totals["pause_sent"] == totals["pause_received"]
        assert totals["resume_sent"] == totals["resume_received"]
