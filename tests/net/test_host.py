"""Host dispatch, flow lifecycle, and the FNCC N counter."""

import pytest

from repro.cc.base import CongestionControl
from repro.net.host import Host
from repro.net.packet import CNP, Packet
from repro.net.port import connect
from repro.transport.flow import Flow
from repro.units import MB, us


def pair(sim, rate=100.0, delay=0):
    """Two hosts wired directly (no switch): ids 0 and 1."""
    a = Host(sim, "a", host_id=0)
    b = Host(sim, "b", host_id=1)
    connect(sim, a, b, rate, delay)
    return a, b


def start(sim, a, b, flow):
    b.register_receiver(flow)
    return a.start_flow(flow, CongestionControl(), base_rtt_ps=us(10))


class TestFlowLifecycle:
    def test_single_flow_completes(self, sim):
        a, b = pair(sim)
        qp = start(sim, a, b, Flow(0, 0, 1, 100_000))
        sim.run()
        assert qp.finished
        assert b.receivers[0].completed
        assert qp.snd_una == 100_000

    def test_flow_starts_at_start_ps(self, sim):
        a, b = pair(sim)
        start(sim, a, b, Flow(0, 0, 1, 1000, start_ps=us(50)))
        sim.run(until=us(49))
        assert b.receivers[0].data_packets == 0
        sim.run()
        assert b.receivers[0].completed

    def test_fct_sink_called_once(self, sim):
        a, b = pair(sim)
        done = []
        b.fct_sink = done.append
        start(sim, a, b, Flow(0, 0, 1, 50_000))
        sim.run()
        assert len(done) == 1
        assert done[0].flow.flow_id == 0

    def test_sender_done_sink(self, sim):
        a, b = pair(sim)
        done = []
        a.sender_done_sink = done.append
        start(sim, a, b, Flow(0, 0, 1, 1000))
        sim.run()
        assert len(done) == 1

    def test_bidirectional_flows(self, sim):
        a, b = pair(sim)
        start(sim, a, b, Flow(0, 0, 1, 200_000))
        b.register_receiver  # (flow 1 goes b -> a)
        a.register_receiver(Flow(1, 1, 0, 200_000))
        b.start_flow(Flow(1, 1, 0, 200_000), CongestionControl(), base_rtt_ps=us(10))
        sim.run()
        assert b.receivers[0].completed and a.receivers[1].completed


class TestValidation:
    def test_wrong_source_rejected(self, sim):
        a, b = pair(sim)
        with pytest.raises(ValueError):
            a.start_flow(Flow(0, 1, 0, 1000), CongestionControl(), us(10))

    def test_wrong_destination_rejected(self, sim):
        a, b = pair(sim)
        with pytest.raises(ValueError):
            b.register_receiver(Flow(0, 1, 0, 1000))

    def test_duplicate_flow_id_rejected(self, sim):
        a, b = pair(sim)
        start(sim, a, b, Flow(0, 0, 1, 1000))
        with pytest.raises(ValueError):
            a.start_flow(Flow(0, 0, 1, 1000), CongestionControl(), us(10))

    def test_data_for_unknown_flow_raises(self, sim):
        a, b = pair(sim)
        from repro.net.packet import DATA

        a.ports[0].enqueue(Packet(DATA, flow_id=99, src=0, dst=1, size=100, payload=52))
        with pytest.raises(RuntimeError):
            sim.run()

    def test_ack_for_unknown_flow_ignored(self, sim):
        from repro.net.packet import ACK

        a, b = pair(sim)
        b.ports[0].enqueue(Packet(ACK, flow_id=99, src=1, dst=0, size=64))
        sim.run()  # no exception

    def test_cnp_dispatch(self, sim):
        a, b = pair(sim)
        hits = []

        class Cc(CongestionControl):
            def on_cnp(self, qp):
                hits.append(1)

        flow = Flow(0, 0, 1, 10 * MB)
        b.register_receiver(flow)
        a.start_flow(flow, Cc(), us(10))
        b.ports[0].enqueue(Packet(CNP, flow_id=0, src=1, dst=0, size=64))
        sim.run(until=us(1))
        assert hits == [1]


class TestConcurrentFlowCount:
    def test_n_counts_only_flows_with_data(self, sim):
        a, b = pair(sim)
        f0 = Flow(0, 0, 1, 5 * MB)
        f1 = Flow(1, 0, 1, 5 * MB, start_ps=us(100))
        b.register_receiver(f0)
        b.register_receiver(f1)
        a.start_flow(f0, CongestionControl(), us(10))
        a.start_flow(f1, CongestionControl(), us(10))
        sim.run(until=us(50))
        assert b._active_inbound == 1  # only f0 has delivered packets
        sim.run(until=us(150))
        assert b._active_inbound == 2

    def test_n_decrements_on_completion(self, sim):
        a, b = pair(sim)
        f = Flow(0, 0, 1, 10_000)
        b.register_receiver(f)
        a.start_flow(f, CongestionControl(), us(10))
        sim.run()
        assert b._active_inbound == 0

    def test_deactivating_a_settled_flow_is_refused(self, sim):
        a, b = pair(sim)
        f0 = Flow(0, 0, 1, 10_000)
        f1 = Flow(1, 0, 1, 5 * MB)
        start(sim, a, b, f0)
        start(sim, a, b, f1)
        sim.run(until=us(50))
        assert b.receivers[0].completed and b._active_inbound == 1
        with pytest.raises(ValueError, match="not an open inbound flow"):
            b.deactivate_receiver(0)  # completed: N already counted it out
        with pytest.raises(ValueError, match="not an open inbound flow"):
            b.deactivate_receiver(7)  # never registered
        assert b._active_inbound == 1
        b.deactivate_receiver(1)
        assert b._active_inbound == 0
        with pytest.raises(ValueError):
            b.deactivate_receiver(1)  # twice
