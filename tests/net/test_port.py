"""Port egress engine: serialization timing, FIFO order, pause, counters."""

import pytest

from repro.net.node import Node
from repro.net.packet import DATA, PAUSE, Packet
from repro.net.port import EcnConfig, connect
from repro.units import serialization_ps


class Sink(Node):
    """Records (time, packet) arrivals."""

    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.arrivals = []

    def receive(self, pkt, in_port):
        self.arrivals.append((self.sim.now, pkt))


def wire(sim, rate=100.0, delay=1000):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    pa, pb = connect(sim, a, b, rate, delay)
    return a, b, pa, pb


def data(size=1518, flow=0):
    return Packet(DATA, flow_id=flow, src=0, dst=1, size=size, payload=size - 48)


class TestTiming:
    def test_arrival_time_is_ser_plus_prop(self, sim):
        a, b, pa, pb = wire(sim, rate=100.0, delay=1500_000)
        pa.enqueue(data(1518))
        sim.run()
        assert len(b.arrivals) == 1
        t, _ = b.arrivals[0]
        assert t == serialization_ps(1518, 100.0) + 1500_000

    def test_back_to_back_spaced_by_serialization(self, sim):
        a, b, pa, pb = wire(sim, rate=100.0, delay=0)
        pa.enqueue(data())
        pa.enqueue(data())
        sim.run()
        t0, t1 = b.arrivals[0][0], b.arrivals[1][0]
        assert t1 - t0 == serialization_ps(1518, 100.0)

    def test_rate_scales_serialization(self, sim):
        a, b, pa, pb = wire(sim, rate=400.0, delay=0)
        pa.enqueue(data())
        sim.run()
        assert b.arrivals[0][0] == serialization_ps(1518, 400.0)

    def test_fifo_order(self, sim):
        a, b, pa, pb = wire(sim)
        for i in range(5):
            pa.enqueue(data(flow=i))
        sim.run()
        assert [p.flow_id for _, p in b.arrivals] == [0, 1, 2, 3, 4]

    def test_full_duplex_is_independent(self, sim):
        a, b, pa, pb = wire(sim, delay=0)
        pa.enqueue(data())
        pb.enqueue(data())
        sim.run()
        assert len(a.arrivals) == 1 and len(b.arrivals) == 1
        assert a.arrivals[0][0] == b.arrivals[0][0]


class TestQueueAccounting:
    def test_qbytes_counts_waiting_only(self, sim):
        a, b, pa, pb = wire(sim)
        pa.enqueue(data())
        pa.enqueue(data())
        # First packet in service is no longer in the queue.
        assert pa.qbytes_total == 1518
        sim.run()
        assert pa.qbytes_total == 0

    def test_tx_bytes_accumulates(self, sim):
        a, b, pa, pb = wire(sim)
        for _ in range(3):
            pa.enqueue(data(1000))
        sim.run()
        assert pa.tx_bytes == 3000
        assert pa.tx_packets == 3

    def test_rx_counters(self, sim):
        a, b, pa, pb = wire(sim)
        pa.enqueue(data(1000))
        sim.run()
        assert pb.rx_packets == 1
        assert pb.rx_bytes == 1000

    def test_max_qlen_high_watermark(self, sim):
        a, b, pa, pb = wire(sim)
        for _ in range(4):
            pa.enqueue(data(1518))
        assert pa.max_qlen == 3 * 1518
        sim.run()


class TestPause:
    def test_paused_priority_not_served(self, sim):
        a, b, pa, pb = wire(sim)
        pa.pause(0)
        pa.enqueue(data())
        sim.run(until=10_000_000)
        assert b.arrivals == []

    def test_resume_restarts(self, sim):
        a, b, pa, pb = wire(sim)
        pa.pause(0)
        pa.enqueue(data())
        sim.run(until=1_000_000)
        pa.resume(0)
        sim.run()
        assert len(b.arrivals) == 1

    def test_inflight_frame_completes_despite_pause(self, sim):
        a, b, pa, pb = wire(sim, delay=0)
        pa.enqueue(data())
        pa.enqueue(data(flow=1))
        pa.pause(0)  # first frame already serializing
        sim.run(until=serialization_ps(1518, 100.0))
        assert len(b.arrivals) == 1
        assert b.arrivals[0][1].flow_id == 0

    def test_control_frames_bypass_pause(self, sim):
        a, b, pa, pb = wire(sim, delay=0)
        pa.pause(0)
        frame = Packet(PAUSE, size=64)
        pa.enqueue(frame)
        sim.run()
        assert len(b.arrivals) == 1

    def test_control_frames_jump_data_queue(self, sim):
        a, b, pa, pb = wire(sim, delay=0)
        pa.enqueue(data())  # goes into service
        pa.enqueue(data(flow=1))  # waits
        pa.enqueue(Packet(PAUSE, size=64))
        sim.run()
        kinds = [p.kind for _, p in b.arrivals]
        assert kinds[1] == PAUSE  # control served before the queued data


class TestEcnMarking:
    def test_marks_above_kmax(self, sim):
        import random

        a, b, pa, pb = wire(sim)
        pa.set_ecn(EcnConfig(kmin=0, kmax=1, pmax=1.0), random.Random(1))
        pa.enqueue(data())  # enters service; queue empty at mark time
        pa.enqueue(data(flow=1))  # queue is 0 bytes when enqueued? (first waits)
        pa.enqueue(data(flow=2))  # queue above kmax -> marked
        sim.run()
        assert b.arrivals[-1][1].ecn is True

    def test_no_marks_below_kmin(self, sim):
        import random

        a, b, pa, pb = wire(sim)
        pa.set_ecn(EcnConfig(kmin=10**9, kmax=2 * 10**9, pmax=1.0), random.Random(1))
        for i in range(10):
            pa.enqueue(data(flow=i))
        sim.run()
        assert not any(p.ecn for _, p in b.arrivals)

    def test_ecn_requires_rng(self, sim):
        a, b, pa, pb = wire(sim)
        with pytest.raises(ValueError):
            pa.set_ecn(EcnConfig(0, 1, 1.0), None)

    def test_mark_probability_shape(self):
        cfg = EcnConfig(kmin=100, kmax=200, pmax=0.5)
        assert cfg.mark_probability(50) == 0.0
        assert cfg.mark_probability(100) == 0.0
        assert cfg.mark_probability(150) == pytest.approx(0.25)
        assert cfg.mark_probability(250) == 1.0

    def test_ecn_config_validation(self):
        with pytest.raises(ValueError):
            EcnConfig(kmin=10, kmax=5, pmax=0.5)
        with pytest.raises(ValueError):
            EcnConfig(kmin=0, kmax=5, pmax=1.5)


class TestWiring:
    def test_unwired_port_rejects(self, sim):
        n = Sink(sim)
        p = n.new_port(100.0, 0)
        with pytest.raises(RuntimeError):
            p.enqueue(data())

    def test_port_validation(self, sim):
        n = Sink(sim)
        with pytest.raises(ValueError):
            n.new_port(0, 0)
        with pytest.raises(ValueError):
            n.new_port(100.0, -5)
