"""PacketTap capture semantics."""

import pytest

from repro.cc.base import CongestionControl
from repro.experiments.common import build_cc_env, launch_flows
from helpers import PacketTap
from repro.net.host import Host
from repro.net.packet import ACK, DATA
from repro.net.port import connect
from repro.topo.dumbbell import dumbbell
from repro.transport.flow import Flow
from repro.units import us


def wired_pair(sim):
    a = Host(sim, "a", host_id=0)
    b = Host(sim, "b", host_id=1)
    connect(sim, a, b, 100.0, 0)
    return a, b


def run_flow(sim, a, b, size=20_000, flow_id=0):
    flow = Flow(flow_id, 0, 1, size, start_ps=sim.now)
    b.register_receiver(flow)
    a.start_flow(flow, CongestionControl(), us(10))


class TestCapture:
    def test_captures_all_by_default(self, sim):
        a, b = wired_pair(sim)
        tap = PacketTap(b)
        run_flow(sim, a, b)
        sim.run()
        assert tap.count == b.receivers[0].data_packets

    def test_kind_filter(self, sim):
        a, b = wired_pair(sim)
        ack_tap = PacketTap(a, kind=ACK)
        data_tap = PacketTap(b, kind=DATA)
        run_flow(sim, a, b)
        sim.run()
        assert ack_tap.count == data_tap.count  # ack per packet
        assert all(p.kind == ACK for p in ack_tap.packets)

    def test_flow_filter(self, sim):
        a, b = wired_pair(sim)
        tap = PacketTap(b, kind=DATA, flow_id=1)
        run_flow(sim, a, b, flow_id=0)
        run_flow(sim, a, b, flow_id=1)
        sim.run()
        assert tap.count > 0
        assert all(p.flow_id == 1 for p in tap.packets)

    def test_predicate_filter(self, sim):
        a, b = wired_pair(sim)
        tap = PacketTap(b, kind=DATA, predicate=lambda p: p.last)
        run_flow(sim, a, b)
        sim.run()
        assert tap.count == 1

    def test_times_monotone_and_inter_arrivals(self, sim):
        a, b = wired_pair(sim)
        tap = PacketTap(b, kind=DATA)
        run_flow(sim, a, b, size=30_000)
        sim.run()
        assert tap.times == sorted(tap.times)
        assert all(g > 0 for g in tap.inter_arrival_ps())

    def test_max_packets_cap(self, sim):
        a, b = wired_pair(sim)
        tap = PacketTap(b, kind=DATA, max_packets=3)
        run_flow(sim, a, b, size=30_000)
        sim.run()
        assert tap.count == 3
        assert tap.dropped > 0

    def test_uninstall_stops_capture(self, sim):
        a, b = wired_pair(sim)
        tap = PacketTap(b)
        run_flow(sim, a, b, size=5000, flow_id=0)
        sim.run()
        n = tap.count
        tap.uninstall()
        run_flow(sim, a, b, size=5000, flow_id=1)
        sim.run()
        assert tap.count == n  # second flow invisible
        assert b.receivers[1].completed  # but still delivered

    def test_summary_mentions_kinds(self, sim):
        a, b = wired_pair(sim)
        tap = PacketTap(b)
        run_flow(sim, a, b, size=3000)
        sim.run()
        assert "DATA" in tap.summary()


class TestSwitchTap:
    def test_mid_path_capture_keeps_every_frame(self, sim):
        """A tap on an intermediate switch holds each frame past its
        delivery at the terminal host; the records must still be the DATA
        frames that crossed the switch, in order."""
        env = build_cc_env("fncc")
        topo = dumbbell(sim, n_senders=1, n_switches=2, switch_config=env.switch_config)
        env.post_install(topo)
        switch = topo.switches[0]
        tap = PacketTap(switch, kind=DATA)
        launch_flows(topo, [Flow(0, 0, 1, 200_000, start_ps=0)], env)
        sim.run()
        assert topo.hosts[1].receivers[0].completed
        assert all(p.kind == DATA for p in tap.packets)
        seqs = [p.seq for p in tap.packets]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        # Every DATA frame entered the switch on the sender-facing port.
        sender_port = topo.adj["sw0"]["sender0"]["ports"]["sw0"]
        assert tap.count == switch.ports[sender_port].rx_packets > 100


class TestHostTapMidRun:
    def test_tap_installed_mid_run_sees_every_later_frame(self, sim):
        """Switch-to-host delivery has one entry, ``peer.node.receive``,
        looked up per frame: a tap that lands in the host's instance dict
        mid-flow must see the very next frame and every one after it, on
        the DATA side and on the ACK side."""
        env = build_cc_env("fncc")
        topo = dumbbell(sim, n_senders=1, n_switches=2, switch_config=env.switch_config)
        env.post_install(topo)
        sender, receiver = topo.hosts[0], topo.hosts[1]
        launch_flows(topo, [Flow(0, 0, 1, 400_000, start_ps=0)], env)
        sim.run(until=us(20))
        rqp = receiver.receivers[0]
        assert 0 < rqp.data_packets and not rqp.completed  # genuinely mid-flow
        before = {h: h.ports[0].rx_packets for h in (sender, receiver)}
        next_seq = rqp.rcv_nxt
        data_tap = PacketTap(receiver)
        ack_tap = PacketTap(sender)
        sim.run()
        assert rqp.completed
        assert data_tap.count == receiver.ports[0].rx_packets - before[receiver] > 100
        assert ack_tap.count == sender.ports[0].rx_packets - before[sender] > 100
        assert data_tap.packets[0].seq == next_seq
        assert all(p.kind == DATA for p in data_tap.packets)
        assert all(p.kind == ACK for p in ack_tap.packets)
