"""Receiver QP: cumulative ACKs, coalescing, INT echo, N field, CNP pacing."""

import pytest

from repro.cc.base import CongestionControl
from repro.net.host import Host
from repro.net.packet import ACK, CNP, DATA, INTRecord, Packet
from repro.net.port import connect
from repro.net.switch import INT_RECORD_BYTES
from repro.sim.engine import Simulator
from repro.transport.flow import Flow
from repro.transport.sender import TransportConfig
from repro.units import ACK_SIZE, us


def pair(sim, transport=None, cnp=False, delay=0):
    a = Host(sim, "a", host_id=0, transport=transport)
    b = Host(sim, "b", host_id=1, transport=transport, cnp_enabled=cnp)
    connect(sim, a, b, 100.0, delay)
    return a, b


def collect_kinds(host):
    """Wrap host.receive to log arriving packets."""
    log = []
    orig = host.receive

    def spy(pkt, in_port):
        log.append(pkt)
        orig(pkt, in_port)

    host.receive = spy
    return log


class TestAckGeneration:
    def test_ack_per_packet_by_default(self, sim):
        a, b = pair(sim)
        acks = collect_kinds(a)
        flow = Flow(0, 0, 1, 10_000)
        b.register_receiver(flow)
        a.start_flow(flow, CongestionControl(), us(10))
        sim.run()
        n_data = b.receivers[0].data_packets
        assert sum(1 for p in acks if p.kind == ACK) == n_data

    def test_cumulative_ack_every_m(self, sim):
        cfg = TransportConfig(ack_every=4)
        a, b = pair(sim, transport=cfg)
        acks = collect_kinds(a)
        flow = Flow(0, 0, 1, 20_000)  # 14 packets
        b.register_receiver(flow)
        qp = a.start_flow(flow, CongestionControl(), us(10))
        sim.run()
        n_data = b.receivers[0].data_packets
        n_acks = sum(1 for p in acks if p.kind == ACK)
        assert n_acks < n_data
        assert qp.finished  # the final packet always forces an ACK

    def test_ack_seq_is_cumulative(self, sim):
        a, b = pair(sim)
        acks = collect_kinds(a)
        flow = Flow(0, 0, 1, 5000)
        b.register_receiver(flow)
        a.start_flow(flow, CongestionControl(), us(10))
        sim.run()
        seqs = [p.seq for p in acks if p.kind == ACK]
        assert seqs == sorted(seqs)
        assert seqs[-1] == 5000

    def test_final_ack_has_last_flag(self, sim):
        a, b = pair(sim)
        acks = collect_kinds(a)
        flow = Flow(0, 0, 1, 3000)
        b.register_receiver(flow)
        a.start_flow(flow, CongestionControl(), us(10))
        sim.run()
        ack_pkts = [p for p in acks if p.kind == ACK]
        assert ack_pkts[-1].last is True

    def test_reverse_addressing(self, sim):
        a, b = pair(sim)
        acks = collect_kinds(a)
        flow = Flow(0, 0, 1, 1000)
        b.register_receiver(flow)
        a.start_flow(flow, CongestionControl(), us(10))
        sim.run()
        ack = [p for p in acks if p.kind == ACK][0]
        assert ack.src == 1 and ack.dst == 0 and ack.flow_id == 0


class TestIntEcho:
    def test_data_int_copied_to_ack(self, sim):
        a, b = pair(sim)
        flow = Flow(0, 0, 1, 1000)
        b.register_receiver(flow)
        rqp = b.receivers[0]
        acks = collect_kinds(a)
        a.register_receiver  # silence lint
        pkt = Packet(DATA, flow_id=0, src=0, dst=1, seq=0, size=1048, payload=1000)
        pkt.last = True
        pkt.add_int(INTRecord(100.0, 5, 100, 7))
        pkt.add_int(INTRecord(100.0, 6, 200, 9))
        rqp.on_data(pkt)
        sim.run()
        ack = [p for p in acks if p.kind == ACK][0]
        assert [r.qlen for r in ack.int_records] == [7, 9]
        assert ack.size == ACK_SIZE + 2 * INT_RECORD_BYTES

    def test_n_flows_always_stamped(self, sim):
        a, b = pair(sim)
        acks = collect_kinds(a)
        flow = Flow(0, 0, 1, 1000)
        b.register_receiver(flow)
        a.start_flow(flow, CongestionControl(), us(10))
        sim.run()
        ack = [p for p in acks if p.kind == ACK][0]
        assert ack.n_flows == 1

    def test_n_flows_counts_concurrency(self, sim):
        a, b = pair(sim)
        acks = collect_kinds(a)
        f0 = Flow(0, 0, 1, 500_000)
        f1 = Flow(1, 0, 1, 500_000)
        for f in (f0, f1):
            b.register_receiver(f)
            a.start_flow(f, CongestionControl(), us(10))
        sim.run()
        assert max(p.n_flows for p in acks if p.kind == ACK) == 2


class TestCnp:
    def run_marked_flow(self, sim, cnp_enabled, n_marked=30, spacing_us=1.0):
        a, b = pair(sim, cnp=cnp_enabled)
        cnps = collect_kinds(a)
        flow = Flow(0, 0, 1, 10**6)
        b.register_receiver(flow)
        a.senders  # keep a alive
        rqp = b.receivers[0]

        def inject(i):
            pkt = Packet(DATA, flow_id=0, src=0, dst=1, seq=i * 1470, size=1518, payload=1470)
            pkt.ecn = True
            rqp.on_data(pkt)

        for i in range(n_marked):
            sim.schedule(us(i * spacing_us), lambda arg, i=i: inject(i))
        sim.run()
        return [p for p in cnps if p.kind == CNP]

    def test_cnp_sent_on_ce_mark(self, sim):
        assert len(self.run_marked_flow(sim, cnp_enabled=True)) >= 1

    def test_cnp_rate_limited_to_interval(self, sim):
        # 30 marked packets over 30 us but CNP interval is 50 us -> one CNP.
        cnps = self.run_marked_flow(sim, cnp_enabled=True)
        assert len(cnps) == 1

    def test_no_cnp_when_disabled(self, sim):
        assert self.run_marked_flow(sim, cnp_enabled=False) == []

    def test_ecn_echo_set_on_ack(self, sim):
        a, b = pair(sim)
        acks = collect_kinds(a)
        flow = Flow(0, 0, 1, 1000)
        b.register_receiver(flow)
        pkt = Packet(DATA, flow_id=0, src=0, dst=1, seq=0, size=1048, payload=1000)
        pkt.ecn = True
        pkt.last = True
        b.receivers[0].on_data(pkt)
        sim.run()
        ack = [p for p in acks if p.kind == ACK][0]
        assert ack.ecn_echo is True


class _CapturingNic:
    """Stands in for the host's NIC (``ReceiverQP._nic``): keeps the ACKs."""

    def __init__(self):
        self.acks = []

    def enqueue(self, pkt):
        self.acks.append(pkt)


def _ack_fields(ack):
    return (
        ack.kind, ack.flow_id, ack.src, ack.dst, ack.seq, ack.size, ack.payload,
        ack.priority, ack.last, ack.lb_tail, ack.ecn_echo, ack.echo_sent_ts,
        ack.n_flows, id(ack.int_records),
    )


class TestInOrderDeliveryIgnoresParkedFrames:
    """An in-order arrival is delivered and ACKed the same whether the
    reorder buffer is empty or holds frames it cannot release yet: state
    and ACK fields after every frame are one function of the arrivals.
    (PR 23 measured an inlined empty-buffer body in ``on_data`` and left
    it out — DESIGN.md §2.6; this is the pin such a body must pass.)"""

    PAYLOAD = 1000
    N = 16
    DROPPED = 6  # arrives late, after two frames were buffered behind it
    TAIL = 3  # carries lb_tail (a rerouted epoch's last frame)

    def _frame(self, flow_id, i, shared_recs):
        pkt = Packet(
            DATA, flow_id=flow_id, src=0, dst=1, seq=i * self.PAYLOAD,
            size=self.PAYLOAD + 48, payload=self.PAYLOAD,
        )
        pkt.last = i == self.N - 1
        pkt.sent_ts = 1000 + i
        pkt.ecn = i % 5 == 0
        pkt.lb_tail = flow_id == 0 and i == self.TAIL
        pkt.lb_tag = 2 if i <= self.TAIL else 3
        pkt.int_records = shared_recs[i % 3]
        return pkt

    def _arrivals(self):
        """(flow_id, frame index) in arrival order: flow 0 with one late
        frame, flow 1 interleaved so N moves 1 -> 2 -> 1 mid-stream."""
        order = [i for i in range(self.N) if i != self.DROPPED]
        order.insert(order.index(self.DROPPED + 2) + 1, self.DROPPED)
        out = []
        for k, i in enumerate(order):
            out.append((0, i))
            if k >= 4:
                out.append((1, k - 4))
        return out + [(1, i) for i in range(self.N - 4, self.N)]

    def _drive(self, sim, ack_every, park_a_frame):
        cfg = TransportConfig(ack_every=ack_every, reorder_window_bytes=10**9)
        _, b = pair(sim, transport=cfg)
        nics = {}
        for fid in (0, 1):
            rqp = b.register_receiver(Flow(fid, 0, 1, self.N * self.PAYLOAD))
            rqp._nic = nics[fid] = _CapturingNic()
            if park_a_frame:
                # One frame parked far past the flow's end keeps _ooo
                # non-empty for the whole run; its epoch tag can never
                # look like the tail's successor.
                far = Packet(DATA, flow_id=fid, src=0, dst=1, seq=10**8,
                             size=self.PAYLOAD + 48, payload=self.PAYLOAD)
                far.lb_tag = -5
                rqp._ooo[far.seq] = far
        recs = [None, [INTRecord(100.0, 1, 2, 3)], [INTRecord(100.0, 4, 5, 6)] * 2]
        trace = []
        for fid, i in self._arrivals():
            sim.now += 7
            b.receive(self._frame(fid, i, recs), 0)
            rqp = b.receivers[fid]
            trace.append((
                fid, i, rqp.rcv_nxt, rqp._unacked_pkts, rqp.completed, rqp.finish_ps,
                rqp.reroute_tails, rqp._last_tail_tag, rqp.dup_acks_sent,
                b._active_inbound, [_ack_fields(a) for a in nics[fid].acks],
            ))
        return trace, nics, recs

    @pytest.mark.parametrize("ack_every", [1, 4])
    def test_same_state_and_same_acks_after_every_frame(self, ack_every):
        fast, nics, recs = self._drive(Simulator(), ack_every, False)  # empty buffer
        slow, _, recs_slow = self._drive(Simulator(), ack_every, True)  # parked frame
        # int_records are compared by identity (the ACK must alias the DATA
        # frame's list, not copy it): map each run's ids to list positions.
        def norm(trace, recs):
            pos = {id(r): k for k, r in enumerate(recs)}
            return [
                row[:-1] + ([a[:-1] + (pos[a[-1]],) for a in row[-1]],)
                for row in trace
            ]

        assert norm(fast, recs) == norm(slow, recs_slow)
        # The scenario reached what it claims to: both flows finished, the
        # late frame forced buffering, N was 2 while the flows overlapped,
        # and coalescing left un-ACKed frames pending at some point.
        last = {fid: [r for r in fast if r[0] == fid][-1] for fid in (0, 1)}
        assert last[0][4] and last[1][4] and last[0][2] == self.N * self.PAYLOAD
        n_flows = {a.n_flows for nic in nics.values() for a in nic.acks}
        assert n_flows == {1, 2}
        n_acks = len(nics[1].acks)
        assert n_acks == (self.N if ack_every == 1 else self.N // 4)
        assert (ack_every == 1) or any(r[3] > 0 for r in fast)
