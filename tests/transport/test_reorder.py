"""Reorder-tolerant receiver: bounded out-of-order buffer, in-order QP
delivery, ACK semantics, and ConWeave epoch/tail-marker handling."""

from repro.cc.base import CongestionControl
from repro.net.host import Host
from repro.net.packet import ACK, DATA, Packet
from repro.net.port import connect
from repro.transport.flow import Flow
from repro.transport.receiver import REORDER_MAX_PKTS
from repro.transport.sender import TransportConfig
from repro.units import us

PAYLOAD = 1000
SIZE = PAYLOAD + 48


def pair(sim, window_bytes=10 * PAYLOAD):
    cfg = TransportConfig(reorder_window_bytes=window_bytes)
    a = Host(sim, "a", host_id=0, transport=cfg)
    b = Host(sim, "b", host_id=1, transport=cfg)
    connect(sim, a, b, 100.0, 0)
    return a, b


def rqp_for(b, total_bytes=5 * PAYLOAD):
    flow = Flow(0, 0, 1, total_bytes)
    return b.register_receiver(flow)


def seg(i, last=False, tag=-1, tail=False):
    pkt = Packet(
        DATA, flow_id=0, src=0, dst=1, seq=i * PAYLOAD, size=SIZE, payload=PAYLOAD
    )
    pkt.last = last
    pkt.lb_tag = tag
    pkt.lb_tail = tail
    return pkt


def acks_of(host):
    log = []
    orig = host.receive

    def spy(pkt, in_port):
        log.append(pkt)
        orig(pkt, in_port)

    host.receive = spy
    return log


class TestInOrderBaseline:
    def test_in_order_unchanged(self, sim):
        a, b = pair(sim)
        acks = acks_of(a)
        rqp = rqp_for(b)
        for i in range(5):
            rqp.on_data(seg(i, last=(i == 4)))
        sim.run()
        assert rqp.completed
        assert rqp.rcv_nxt == 5 * PAYLOAD
        assert rqp.ooo_buffered == 0
        assert [p.seq for p in acks if p.kind == ACK][-1] == 5 * PAYLOAD


class TestBuffering:
    def test_hole_filled_delivers_in_order(self, sim):
        a, b = pair(sim)
        acks = acks_of(a)
        rqp = rqp_for(b)
        rqp.on_data(seg(0))
        rqp.on_data(seg(2))  # hole at seg 1
        rqp.on_data(seg(3))
        assert rqp.rcv_nxt == PAYLOAD  # nothing delivered past the hole
        assert rqp.ooo_buffered == 2
        rqp.on_data(seg(1))  # hole fills
        assert rqp.rcv_nxt == 4 * PAYLOAD
        assert rqp.ooo_delivered == 2
        rqp.on_data(seg(4, last=True))
        sim.run()
        assert rqp.completed
        seqs = [p.seq for p in acks if p.kind == ACK]
        assert seqs == sorted(seqs)  # cumulative ACKs never regress
        assert seqs[-1] == 5 * PAYLOAD

    def test_buffered_ooo_sends_no_dup_ack(self, sim):
        a, b = pair(sim)
        acks = acks_of(a)
        rqp = rqp_for(b)
        rqp.on_data(seg(0))
        rqp.on_data(seg(2))
        sim.run()
        # One ACK for seg 0; the buffered arrival is silent.
        assert len([p for p in acks if p.kind == ACK]) == 1
        assert rqp.dup_acks_sent == 0

    def test_completion_via_drained_last_packet(self, sim):
        a, b = pair(sim)
        rqp = rqp_for(b, total_bytes=3 * PAYLOAD)
        rqp.on_data(seg(2, last=True))  # last packet arrives first
        rqp.on_data(seg(1))
        assert not rqp.completed
        rqp.on_data(seg(0))
        sim.run()
        assert rqp.completed
        assert rqp.rcv_nxt == 3 * PAYLOAD


class TestEdgeCases:
    def test_window_overflow_drops_with_dup_ack(self, sim):
        a, b = pair(sim, window_bytes=2 * PAYLOAD)
        acks = acks_of(a)
        rqp = rqp_for(b)
        rqp.on_data(seg(0))
        rqp.on_data(seg(2))  # inside window (<= rcv_nxt + 2 segments)
        rqp.on_data(seg(7))  # far beyond window -> dropped
        sim.run()
        assert rqp.ooo_overflows == 1
        assert rqp.dup_acks_sent == 1
        dup = [p for p in acks if p.kind == ACK][-1]
        assert dup.seq == PAYLOAD  # cumulative, pointing at the hole

    def test_max_pkts_overflow(self, sim):
        n = REORDER_MAX_PKTS
        a, b = pair(sim, window_bytes=(n + 10) * PAYLOAD)
        rqp = rqp_for(b, total_bytes=(n + 10) * PAYLOAD)
        rqp.on_data(seg(0))
        for i in range(2, n + 3):  # one frame more than the buffer holds
            rqp.on_data(seg(i))
        assert rqp.ooo_buffered == n
        assert rqp.ooo_overflows == 1

    def test_duplicate_buffered_copy_released(self, sim):
        a, b = pair(sim)
        rqp = rqp_for(b)
        rqp.on_data(seg(0))
        rqp.on_data(seg(2))
        rqp.on_data(seg(2))  # second copy of a buffered frame
        assert rqp.ooo_duplicates == 1
        assert rqp.ooo_buffered == 1

    def test_a_stale_arrival_purges_copies_the_replay_overtook(self, sim):
        a, b = pair(sim)
        rqp = rqp_for(b)
        rqp.on_data(seg(0))
        rqp.on_data(seg(1))
        # A buffered copy the in-order replay has already passed.
        rqp._ooo[PAYLOAD] = seg(1)
        rqp._ooo_bytes += PAYLOAD
        rqp.on_data(seg(0))  # a stale arrival: the rare recovery path purges
        assert not rqp._ooo and rqp._ooo_bytes == 0
        assert rqp.ooo_duplicates == 1

    def test_stale_seq_dup_acks(self, sim):
        a, b = pair(sim)
        acks = acks_of(a)
        rqp = rqp_for(b)
        rqp.on_data(seg(0))
        rqp.on_data(seg(1))
        rqp.on_data(seg(0))  # timeout-rewound retransmission
        sim.run()
        assert rqp.dup_acks_sent == 1
        assert [p for p in acks if p.kind == ACK][-1].seq == 2 * PAYLOAD

    def test_stale_buffered_purged_after_rewind_retx(self, sim):
        """A retransmission burst can advance rcv_nxt past buffered copies;
        they must be purged, not pinned forever."""
        a, b = pair(sim)
        rqp = rqp_for(b)
        rqp.on_data(seg(0))
        rqp.on_data(seg(2))
        rqp.on_data(seg(3))
        # Go-back-N retransmits 1..3; the buffered 2 drains with 1, the
        # retransmitted 2 and 3 then arrive as stale/in-order mixes.
        rqp.on_data(seg(1))
        assert rqp.rcv_nxt == 4 * PAYLOAD
        rqp.on_data(seg(2))  # stale retransmission
        rqp.on_data(seg(3))  # stale retransmission
        assert not rqp._ooo
        assert rqp._ooo_bytes == 0


class TestEpochTail:
    def test_tail_delivery_counts(self, sim):
        a, b = pair(sim)
        rqp = rqp_for(b)
        rqp.on_data(seg(0, tag=0, tail=True))
        rqp.on_data(seg(1, tag=1))
        assert rqp.reroute_tails == 1
        assert rqp.max_epoch_seen == 1

    def test_tail_with_unexplained_hole_hints_loss(self, sim):
        a, b = pair(sim)
        cfg = b.transport_config
        cfg.ack_every = 4  # keep normal ACKs quiet so the hint is visible
        acks = acks_of(a)
        rqp = rqp_for(b, total_bytes=20 * PAYLOAD)
        rqp.on_data(seg(1, tag=1))  # new-epoch frame beyond a hole
        rqp.on_data(seg(0, tag=0, tail=True))  # old epoch fully drained...
        # ...and seg 1 drains with it, so no hole remains: no hint.
        assert rqp.tail_loss_hints == 0
        rqp.on_data(seg(4, tag=1))  # hole at 2,3
        rqp.on_data(seg(2, tag=0, tail=True))  # old path drained, hole at 3
        sim.run()
        assert rqp.tail_loss_hints == 1
        assert any(p.kind == ACK and p.seq == 3 * PAYLOAD for p in acks)

    def test_double_reroute_suppresses_hint(self, sim):
        """Epoch-0 tail drains while the hole belongs to epoch 1 (in
        flight on its own slower path) and the buffered frame is already
        epoch 2: loss is NOT provable, so no hint may fire."""
        a, b = pair(sim)
        cfg = b.transport_config
        cfg.ack_every = 4
        rqp = rqp_for(b, total_bytes=20 * PAYLOAD)
        rqp.on_data(seg(4, tag=2))  # epoch-2 frame beyond the hole
        rqp.on_data(seg(0, tag=0))
        rqp.on_data(seg(1, tag=0, tail=True))  # epoch-0 tail, hole at 2,3
        sim.run()
        assert rqp.reroute_tails == 1
        assert rqp.tail_loss_hints == 0

    def test_tail_marker_loss_degrades_gracefully(self, sim):
        """If the tail marker never arrives (dropped old path), delivery
        still completes purely seq-driven once the hole fills."""
        a, b = pair(sim)
        rqp = rqp_for(b, total_bytes=4 * PAYLOAD)
        rqp.on_data(seg(0, tag=0))
        rqp.on_data(seg(2, tag=1))
        rqp.on_data(seg(3, tag=1, last=True))
        assert not rqp.completed
        rqp.on_data(seg(1, tag=0))  # retransmitted hole (its tail was lost)
        sim.run()
        assert rqp.completed
        assert rqp.reroute_tails == 0
        assert rqp.rcv_nxt == 4 * PAYLOAD


class TestDupAckFastRewind:
    def test_rewind_disabled_by_default(self, sim):
        a, b = pair(sim)
        flow = Flow(0, 0, 1, 50 * PAYLOAD)
        b.register_receiver(flow)
        qp = a.start_flow(flow, CongestionControl(), us(10))
        assert qp._dupack_rewind == 0

    def test_dup_ack_triggers_rewind(self, sim):
        cfg = TransportConfig(reorder_window_bytes=10 * PAYLOAD, dupack_rewind=1)
        a = Host(sim, "a", host_id=0, transport=cfg)
        b = Host(sim, "b", host_id=1, transport=cfg)
        connect(sim, a, b, 100.0, 0)
        flow = Flow(0, 0, 1, 50 * PAYLOAD)
        b.register_receiver(flow)
        qp = a.start_flow(flow, CongestionControl(), us(10))
        qp.snd_una = 5 * PAYLOAD
        qp.snd_nxt = 20 * PAYLOAD
        dup = Packet(ACK, flow_id=0, src=1, dst=0, seq=5 * PAYLOAD, size=64)
        qp.on_ack(dup)
        assert qp.fast_rewinds == 1
        # Rewound to snd_una and already retransmitting from there: the
        # first re-emitted frames start at 5 * PAYLOAD, far below the old
        # snd_nxt.
        assert 5 * PAYLOAD < qp.snd_nxt < 20 * PAYLOAD

    def test_rewind_rate_limited_per_rtt(self, sim):
        cfg = TransportConfig(reorder_window_bytes=10 * PAYLOAD, dupack_rewind=1)
        a = Host(sim, "a", host_id=0, transport=cfg)
        b = Host(sim, "b", host_id=1, transport=cfg)
        connect(sim, a, b, 100.0, 0)
        flow = Flow(0, 0, 1, 50 * PAYLOAD)
        b.register_receiver(flow)
        qp = a.start_flow(flow, CongestionControl(), us(10))
        qp.snd_una = 5 * PAYLOAD
        for _ in range(4):  # a burst of dup ACKs within one RTT
            qp.snd_nxt = 20 * PAYLOAD
            qp.on_ack(Packet(ACK, flow_id=0, src=1, dst=0, seq=5 * PAYLOAD, size=64))
        assert qp.fast_rewinds == 1

    def test_cumulative_jump_snaps_snd_nxt_forward(self, sim):
        cfg = TransportConfig(reorder_window_bytes=10 * PAYLOAD, dupack_rewind=1)
        a = Host(sim, "a", host_id=0, transport=cfg)
        b = Host(sim, "b", host_id=1, transport=cfg)
        connect(sim, a, b, 100.0, 0)
        flow = Flow(0, 0, 1, 50 * PAYLOAD)
        b.register_receiver(flow)
        qp = a.start_flow(flow, CongestionControl(), us(10))
        qp.snd_una = qp.snd_nxt = 5 * PAYLOAD  # just rewound
        # The receiver's buffer drained: the cumulative ACK jumps past
        # snd_nxt; re-sending 5..20 would only echo stale dup ACKs, so
        # transmission resumes at/after the acked byte instead.
        qp.on_ack(Packet(ACK, flow_id=0, src=1, dst=0, seq=20 * PAYLOAD, size=64))
        assert qp.snd_una == 20 * PAYLOAD
        assert qp.snd_nxt >= 20 * PAYLOAD

    def test_nack_survives_ack_coalescing(self, sim):
        """With ack_every > 1 the receiver's snd_una view lags, so a NACK
        ACK can *advance* snd_una — it must still trigger the rewind (the
        seq == snd_una duplicate test alone would miss it)."""
        cfg = TransportConfig(
            ack_every=4, reorder_window_bytes=10 * PAYLOAD, dupack_rewind=1
        )
        a = Host(sim, "a", host_id=0, transport=cfg)
        b = Host(sim, "b", host_id=1, transport=cfg)
        connect(sim, a, b, 100.0, 0)
        flow = Flow(0, 0, 1, 50 * PAYLOAD)
        b.register_receiver(flow)
        qp = a.start_flow(flow, CongestionControl(), us(10))
        qp.snd_una = 3 * PAYLOAD
        qp.snd_nxt = 20 * PAYLOAD
        nack = Packet(ACK, flow_id=0, src=1, dst=0, seq=8 * PAYLOAD, size=64)
        nack.lb_tail = True  # ACK-side meaning: retransmit request
        qp.on_ack(nack)
        assert qp.fast_rewinds == 1
        assert qp.snd_una == 8 * PAYLOAD

    def test_transport_config_not_mutated_across_topologies(self):
        """install_lb adjusts the *topology's* transport config; a caller
        config shared between topologies must stay untouched."""
        from repro.lb import LbConfig
        from repro.topo.fattree import fattree
        from repro.sim.engine import Simulator

        tc = TransportConfig()
        topo = fattree(Simulator(), k=4, transport_config=tc, lb=LbConfig("spray"))
        assert topo.transport_config.reorder_window_bytes > 0
        assert topo.transport_config.dupack_rewind == 1
        assert tc.reorder_window_bytes == 0  # caller's object untouched
        assert tc.dupack_rewind == 0
        baseline = fattree(Simulator(), k=4, transport_config=tc)
        assert baseline.transport_config.reorder_window_bytes == 0

    def test_overflow_drops_recover_without_timeout(self, sim):
        """The wedge regression: a reordering fabric whose receiver window
        overflows (dropping frames) must still complete every flow with
        retransmission timeouts disabled — the overflow dup ACKs drive
        fast rewinds."""
        from repro.lb import LbConfig, install_lb
        from repro.topo.fattree import fattree

        topo = fattree(sim, k=4, lb=LbConfig("spray"))
        # Shrink the window after install: 2 frames of tolerance only.
        topo.transport_config.reorder_window_bytes = 2 * 1452
        a = topo.node("h_0_0_0")
        b = topo.node("h_2_1_0")
        flow = Flow(0, a.host_id, b.host_id, 300_000)
        rqp = topo.hosts[b.host_id].register_receiver(flow)
        qp = topo.hosts[a.host_id].start_flow(flow, CongestionControl(), us(10))
        sim.run()
        assert rqp.ooo_overflows > 0  # the scenario actually dropped
        assert qp.timeouts == 0
        assert qp.fast_rewinds > 0
        assert rqp.completed


class TestEndToEndSprayedFattree:
    def test_flow_completes_under_heavy_reorder(self, sim):
        """Integration: a sprayed fat-tree flow completes with the buffer
        absorbing reorder and zero dup ACKs."""
        from repro.lb import LbConfig
        from repro.topo.fattree import fattree

        topo = fattree(sim, k=4, lb=LbConfig("spray"))
        a = topo.node("h_0_0_0")
        b = topo.node("h_2_1_0")
        flow = Flow(0, a.host_id, b.host_id, 200_000)
        rqp = topo.hosts[b.host_id].register_receiver(flow)
        topo.hosts[a.host_id].start_flow(flow, CongestionControl(), us(10))
        sim.run()
        assert rqp.completed
        assert rqp.ooo_buffered == rqp.ooo_delivered
        assert rqp.ooo_overflows == 0
