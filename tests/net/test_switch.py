"""Switch behaviour: forwarding, shared buffer, PFC, INT insertion (Alg. 1)."""

import pytest

from repro.net.node import Node
from repro.net.packet import ACK, DATA, PAUSE, RESUME, Packet
from repro.net.port import connect
from repro.net.switch import INT_RECORD_BYTES, IntMode, Switch, SwitchConfig
from repro.units import ACK_SIZE, KB


class Endpoint(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.arrivals = []

    def receive(self, pkt, in_port):
        self.arrivals.append((self.sim.now, pkt))


def chain(sim, config=None, rate=100.0, delay=0):
    """host_a -- switch -- host_b; static router by dst id (a=0, b=1)."""
    sw = Switch(sim, "sw", config or SwitchConfig())
    a = Endpoint(sim, "a")
    b = Endpoint(sim, "b")
    connect(sim, a, sw, rate, delay)  # sw port 0 <-> a
    connect(sim, sw, b, rate, delay)  # sw port 1 <-> b

    def router(s, pkt):
        return 1 if pkt.dst == 1 else 0

    sw.router = router
    return a, sw, b


def data(seq=0, size=1518, src=0, dst=1, flow=0):
    return Packet(DATA, flow_id=flow, src=src, dst=dst, seq=seq, size=size, payload=size - 48)


def ack(seq=0, src=1, dst=0, flow=0):
    return Packet(ACK, flow_id=flow, src=src, dst=dst, seq=seq, size=ACK_SIZE)


class TestForwarding:
    def test_routes_by_destination(self, sim):
        a, sw, b = chain(sim)
        a.ports[0].enqueue(data(dst=1))
        sim.run()
        assert len(b.arrivals) == 1 and a.arrivals == []

    def test_hop_counter_increments(self, sim):
        a, sw, b = chain(sim)
        a.ports[0].enqueue(data())
        sim.run()
        assert b.arrivals[0][1].hops == 1

    def test_no_router_raises(self, sim):
        sw = Switch(sim, "sw", SwitchConfig())
        a = Endpoint(sim, "a")
        connect(sim, a, sw, 100.0, 0)
        a.ports[0].enqueue(data())
        with pytest.raises(RuntimeError):
            sim.run()

    def test_routing_loop_detected(self, sim):
        a, sw, b = chain(sim)
        sw.router = lambda s, pkt: pkt.in_port  # bounce back
        a.ports[0].enqueue(data(flow=7))
        with pytest.raises(RuntimeError, match=r"^sw: routing loop, <DATA flow=7 ") as exc:
            sim.run()
        # A router swapped in by hand refuses fusion: Switch.receive raised.
        assert exc.traceback[-1].name == "receive"

    def test_routing_loop_detected_on_the_fused_hop(self, sim, monkeypatch):
        # A U-turn router installed through install_lb is the switch's
        # _lb_router, so the frame takes the fused frame-train hop and
        # Port._tx_deliver raises, naming the frame the same way.
        from repro.lb.base import REGISTRY, LbConfig, LoadBalancer, install_lb
        from repro.topo.base import Topology

        class UTurnLB(LoadBalancer):
            name = "uturn"
            train_transparent = True

            def make_router(self, sw, split):
                return lambda s, pkt: pkt.in_port

        monkeypatch.setitem(REGISTRY, "uturn", UTurnLB)
        topo = Topology(sim)
        a, b = topo.add_host("a"), topo.add_host("b")
        s = topo.add_switch("sw")
        topo.link(a, s)
        topo.link(s, b)
        install_lb(topo, LbConfig("uturn"))
        assert s._train_ok and s.router is s._lb_router
        a.ports[0].enqueue(data(flow=7))
        with pytest.raises(RuntimeError, match=r"^sw: routing loop, <DATA flow=7 ") as exc:
            sim.run()
        assert exc.traceback[-1].name == "_tx_deliver"


class TestSharedBuffer:
    def test_drop_when_buffer_full(self, sim):
        cfg = SwitchConfig(buffer_bytes=2000, pfc_enabled=False)
        a, sw, b = chain(sim, cfg)
        sw.ports[1].pause(0)  # block the egress so the shared buffer fills
        for i in range(5):
            a.ports[0].enqueue(data(flow=i))
        sim.run(until=5_000_000)
        assert sw.drops > 0
        sw.ports[1].resume(0)
        sim.run()
        assert len(b.arrivals) + sw.drops == 5

    def test_buffer_released_on_departure(self, sim):
        a, sw, b = chain(sim)
        for i in range(3):
            a.ports[0].enqueue(data(flow=i))
        sim.run()
        assert sw.buffer_used == 0


class TestPfc:
    def make(self, sim, xoff=4 * KB):
        cfg = SwitchConfig(pfc_enabled=True, pfc_xoff=xoff, pfc_xon=xoff - 2 * 1518)
        return chain(sim, cfg)

    def test_pause_sent_when_xoff_crossed(self, sim):
        a, sw, b = self.make(sim)
        # Pause the egress toward b so packets pile up inside the switch.
        sw.ports[1].pause(0)
        for i in range(6):
            a.ports[0].enqueue(data(flow=i))
        sim.run(until=10_000_000)
        pauses = [p for _, p in a.arrivals if p.kind == PAUSE]
        assert len(pauses) >= 1
        assert sw.ports[0].pause_sent >= 1

    def test_resume_sent_after_drain(self, sim):
        a, sw, b = self.make(sim)
        sw.ports[1].pause(0)
        for i in range(6):
            a.ports[0].enqueue(data(flow=i))
        sim.run(until=2_000_000)
        sw.ports[1].resume(0)
        sim.run()
        kinds = [p.kind for _, p in a.arrivals]
        assert PAUSE in kinds and RESUME in kinds
        assert len(b.arrivals) == 6  # lossless: everything delivered

    def test_pause_received_pauses_that_port(self, sim):
        a, sw, b = self.make(sim)
        frame = Packet(PAUSE, size=64)
        b.ports[0].enqueue(frame)  # b pauses the switch's egress toward b
        sim.run()
        a.ports[0].enqueue(data())
        sim.run(until=5_000_000)
        assert b.arrivals == []
        resume = Packet(RESUME, size=64)
        b.ports[0].enqueue(resume)
        sim.run()
        assert len(b.arrivals) == 1

    def test_no_pause_when_disabled(self, sim):
        cfg = SwitchConfig(pfc_enabled=False, buffer_bytes=10**9)
        a, sw, b = chain(sim, cfg)
        sw.ports[1].pause(0)
        for i in range(50):
            a.ports[0].enqueue(data(flow=i))
        sim.run(until=10_000_000)
        assert sw.ports[0].pause_sent == 0

    def test_xon_must_not_exceed_xoff(self):
        with pytest.raises(ValueError):
            SwitchConfig(pfc_xoff=1000, pfc_xon=2000)


class TestPfcFrameLedger:
    """Satellite fix: XON frames are now counted on receive
    (``resume_received``), so Fig. 3 pause-frame totals reconcile tx
    against rx instead of silently dropping every second frame kind."""

    def test_switch_to_switch_ledger_balances(self, sim):
        # a -- sw1 -- sw2 -- b with a tight XOFF on sw2 only: sw2 pauses
        # and later resumes sw1's egress.  After a full drain every PFC
        # frame sw2 sent must be counted once by sw1.
        tight = SwitchConfig(pfc_enabled=True, pfc_xoff=4 * KB, pfc_xon=4 * KB - 2 * 1518)
        loose = SwitchConfig(pfc_enabled=True, pfc_xoff=10**9)
        sw1 = Switch(sim, "sw1", loose)
        sw2 = Switch(sim, "sw2", tight)
        a = Endpoint(sim, "a")
        b = Endpoint(sim, "b")
        connect(sim, a, sw1, 100.0, 0)  # sw1 port 0
        connect(sim, sw1, sw2, 100.0, 0)  # sw1 port 1 <-> sw2 port 0
        connect(sim, sw2, b, 100.0, 0)  # sw2 port 1
        sw1.router = lambda s, pkt: 1 if pkt.dst == 1 else 0
        sw2.router = lambda s, pkt: 1 if pkt.dst == 1 else 0

        sw2.ports[1].pause(0)  # hold sw2's egress so its ingress fills
        for i in range(8):
            a.ports[0].enqueue(data(flow=i))
        sim.run(until=5_000_000)
        assert sw2.ports[0].pause_sent >= 1
        sw2.ports[1].resume(0)
        sim.run()

        tx = sw2.ports[0]  # sw2's frames toward sw1
        rx = sw1.ports[1]  # counted where they arrive
        assert tx.pause_sent == rx.pause_received >= 1
        assert tx.resume_sent == rx.resume_received >= 1
        assert len(b.arrivals) == 8  # lossless through the storm


class TestHpccIntInsertion:
    def test_data_gets_int_record(self, sim):
        a, sw, b = chain(sim, SwitchConfig(int_mode=IntMode.HPCC))
        a.ports[0].enqueue(data())
        sim.run()
        pkt = b.arrivals[0][1]
        assert len(pkt.int_records) == 1
        rec = pkt.int_records[0]
        assert rec.bandwidth_gbps == 100.0
        # Forward-time stamping (DESIGN.md §11): the record describes the
        # egress queue as the frame joins it, so the first frame through an
        # idle switch sees zero bytes already transmitted on that egress.
        assert rec.tx_bytes == 0
        a.ports[0].enqueue(data(seq=1))
        sim.run()
        rec2 = b.arrivals[1][1].int_records[0]
        # The second frame's record counts the first one's wire bytes.
        assert rec2.tx_bytes == b.arrivals[0][1].size

    def test_int_grows_packet_size(self, sim):
        a, sw, b = chain(sim, SwitchConfig(int_mode=IntMode.HPCC))
        a.ports[0].enqueue(data(size=1000))
        sim.run()
        assert b.arrivals[0][1].size == 1000 + INT_RECORD_BYTES

    def test_acks_not_stamped_in_hpcc_mode(self, sim):
        a, sw, b = chain(sim, SwitchConfig(int_mode=IntMode.HPCC))
        b.ports[0].enqueue(ack())
        sim.run()
        assert a.arrivals[0][1].int_records is None


class TestFnccIntInsertion:
    def test_ack_gets_request_path_port_int(self, sim):
        """Alg. 1: the ACK entering on port 1 (from b) must carry the INT of
        the switch's *egress toward b* — the request-path queue."""
        a, sw, b = chain(sim, SwitchConfig(int_mode=IntMode.FNCC))
        # Build a standing queue toward b by pausing that egress.
        sw.ports[1].pause(0)
        for i in range(3):
            a.ports[0].enqueue(data(flow=i))
        sim.run(until=1_000_000)
        qlen_toward_b = sw.ports[1].qbytes_total
        assert qlen_toward_b > 0
        b.ports[0].enqueue(ack())
        sim.run(until=2_000_000)
        ack_back = [p for _, p in a.arrivals if p.kind == ACK][0]
        assert len(ack_back.int_records) == 1
        assert ack_back.int_records[0].qlen == qlen_toward_b

    def test_data_not_stamped_in_fncc_mode(self, sim):
        a, sw, b = chain(sim, SwitchConfig(int_mode=IntMode.FNCC))
        a.ports[0].enqueue(data())
        sim.run()
        assert b.arrivals[0][1].int_records is None

    def test_ack_size_grows_per_hop(self, sim):
        a, sw, b = chain(sim, SwitchConfig(int_mode=IntMode.FNCC))
        b.ports[0].enqueue(ack())
        sim.run()
        ack_back = [p for _, p in a.arrivals if p.kind == ACK][0]
        assert ack_back.size == ACK_SIZE + INT_RECORD_BYTES

    def test_snapshot_mode_reads_stale_table(self, sim):
        cfg = SwitchConfig(int_mode=IntMode.FNCC, int_table_refresh_ps=10_000_000)
        a, sw, b = chain(sim, cfg)
        sw.start()  # arms the refresh timer and takes the t=0 snapshot
        sw.ports[1].pause(0)
        for i in range(3):
            a.ports[0].enqueue(data(flow=i))
        sim.run(until=1_000_000)
        assert sw.ports[1].qbytes_total > 0
        b.ports[0].enqueue(ack())
        sim.run(until=2_000_000)
        ack_back = [p for _, p in a.arrivals if p.kind == ACK][0]
        # Snapshot was taken at t=0, before the queue built up.
        assert ack_back.int_records[0].qlen == 0


class TestRoccStamping:
    def test_ack_carries_min_fair_rate(self, sim):
        a, sw, b = chain(sim)

        class Ctrl:
            fair_rate_gbps = 37.5

        sw.port_controllers[1] = Ctrl()
        b.ports[0].enqueue(ack())
        sim.run()
        ack_back = [p for _, p in a.arrivals if p.kind == ACK][0]
        assert ack_back.rocc_rate_gbps == 37.5

    def test_stamping_keeps_minimum(self, sim):
        a, sw, b = chain(sim)

        class Ctrl:
            fair_rate_gbps = 80.0

        sw.port_controllers[1] = Ctrl()
        pkt = ack()
        pkt.rocc_rate_gbps = 20.0  # a more congested hop already stamped less
        b.ports[0].enqueue(pkt)
        sim.run()
        ack_back = [p for _, p in a.arrivals if p.kind == ACK][0]
        assert ack_back.rocc_rate_gbps == 20.0
