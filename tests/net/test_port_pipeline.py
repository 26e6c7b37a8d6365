"""Regression tests for the arithmetic single-event link pipeline and the
Switch.new_port n_prio contract."""

import pytest

from repro.net.node import Node
from repro.net.packet import DATA, PAUSE, Packet
from repro.net.port import connect
from repro.net.switch import Switch, SwitchConfig
from repro.units import serialization_ps


class Sink(Node):
    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.arrivals = []

    def receive(self, pkt, in_port):
        self.arrivals.append((self.sim.now, pkt))


def wire(sim, rate=100.0, delay=0):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    pa, pb = connect(sim, a, b, rate, delay)
    return a, b, pa, pb


def data(size=1518, prio=0, flow=0):
    return Packet(DATA, flow_id=flow, src=0, dst=1, size=size, payload=size - 48, priority=prio)


class TestSwitchNewPortPrio:
    """Satellite fix: new_port used to silently ignore its n_prio arg."""

    def test_default_uses_config_n_prio(self, sim):
        sw = Switch(sim, "sw", SwitchConfig(n_prio=4))
        port = sw.new_port(100.0, 0)
        assert port.n_prio == 4

    def test_matching_override_accepted(self, sim):
        sw = Switch(sim, "sw", SwitchConfig(n_prio=4))
        port = sw.new_port(100.0, 0, n_prio=4)
        assert port.n_prio == 4

    def test_conflicting_override_raises(self, sim):
        sw = Switch(sim, "sw", SwitchConfig(n_prio=4))
        with pytest.raises(ValueError, match="n_prio"):
            sw.new_port(100.0, 0, n_prio=2)

    def test_connect_mismatch_detected(self, sim):
        """connect(n_prio=...) against a switch with a different config no
        longer silently builds mismatched PFC state."""
        sw = Switch(sim, "sw", SwitchConfig(n_prio=2))
        other = Sink(sim)
        with pytest.raises(ValueError):
            connect(sim, other, sw, 100.0, 0, n_prio=3)

    def test_plain_node_default_is_one(self, sim):
        n = Sink(sim)
        assert n.new_port(100.0, 0).n_prio == 1


class TestSingleEventPipeline:
    def test_one_dispatch_per_frame_hop(self, sim):
        """The tentpole invariant: a frame-hop costs one scheduler event."""
        a, b, pa, pb = wire(sim)
        for i in range(10):
            pa.enqueue(data(flow=i))
        sim.run()
        assert len(b.arrivals) == 10
        assert sim.events_dispatched == 10

    def test_backlog_keeps_single_outstanding_event(self, sim):
        a, b, pa, pb = wire(sim)
        for i in range(50):
            pa.enqueue(data(flow=i))
        # Only the head delivery is armed; the rest are arithmetic.
        assert sim.queue_len() == 1
        sim.run()
        assert len(b.arrivals) == 50

    def test_pause_requeue_preserves_arrival_times(self, sim):
        """XOFF then immediate XON must not change the schedule."""
        a, b, pa, pb = wire(sim, delay=0)
        for i in range(5):
            pa.enqueue(data(flow=i))
        expected_last = 5 * serialization_ps(1518, 100.0)
        pa.pause(0)
        pa.resume(0)
        sim.run()
        assert [p.flow_id for _, p in b.arrivals] == [0, 1, 2, 3, 4]
        assert b.arrivals[-1][0] == expected_last

    def test_pause_midstream_shifts_tail_only(self, sim):
        ser = serialization_ps(1518, 100.0)
        a, b, pa, pb = wire(sim, delay=0)
        for i in range(3):
            pa.enqueue(data(flow=i))
        pa.pause(0)  # frame 0 in service completes; 1 and 2 re-queued
        sim.run(until=10 * ser)
        assert len(b.arrivals) == 1
        pa.resume(0)
        sim.run()
        assert [p.flow_id for _, p in b.arrivals] == [0, 1, 2]
        # Tail restarts at resume time, back-to-back.
        assert b.arrivals[2][0] - b.arrivals[1][0] == ser

    def test_control_frame_preempts_pending_commits(self, sim):
        ser = serialization_ps(1518, 100.0)
        a, b, pa, pb = wire(sim, delay=0)
        pa.enqueue(data(flow=0))
        pa.enqueue(data(flow=1))
        ctrl = Packet(PAUSE, size=64)
        pa.enqueue(ctrl)
        sim.run()
        kinds = [p.kind for _, p in b.arrivals]
        assert kinds == [DATA, PAUSE, DATA]
        # The control frame went on the wire right at the frame boundary.
        assert b.arrivals[1][0] == ser + serialization_ps(64, 100.0)

    def test_queue_backlog_lazy_accounting(self, sim):
        ser = serialization_ps(1518, 100.0)
        a, b, pa, pb = wire(sim)
        for i in range(4):
            pa.enqueue(data(flow=i))
        assert pa.qbytes_total == 3 * 1518  # head in service not counted
        sim.run(until=ser)
        assert pa.qbytes_total == 2 * 1518
        sim.run(until=2 * ser)
        assert pa.qbytes_total == 1518
        sim.run()
        assert pa.qbytes_total == 0


class TestBoundedCommitWindow:
    """The pause-storm fix: commits are bounded (K-frame lookahead) and
    lazy, so PFC transitions touch O(K) frames, never O(backlog)."""

    def test_pending_window_is_bounded(self, sim):
        a, b, pa, pb = wire(sim, delay=0)
        for i in range(200):
            pa.enqueue(data(flow=i))
        # Only the lookahead window is committed ahead of the serializer;
        # the rest of the backlog is parked in the priority queue.
        assert len(pa._acct) <= pa.commit_lookahead
        assert len(pa._inflight) <= pa.commit_lookahead + 1
        assert sim.queue_len() == 1  # still exactly one armed event
        sim.run()
        assert [p.flow_id for _, p in b.arrivals] == list(range(200))
        assert sim.events_dispatched == 200  # still 1 dispatch per frame

    def test_pause_resume_touch_window_not_backlog(self, sim):
        a, b, pa, pb = wire(sim, delay=0)
        for i in range(500):
            pa.enqueue(data(flow=i))
        pa.pause(0)
        # XOFF re-sequenced only the committed window: everything except
        # the in-service head is parked, nothing pending on the wire.
        assert len(pa._acct) == 0
        assert len(pa.queues[0]) == 499
        pa.resume(0)
        # XON re-committed only the window, not the whole backlog.
        assert len(pa._acct) <= pa.commit_lookahead
        sim.run()
        assert len(b.arrivals) == 500
        assert pa.qbytes_total == 0

    def test_deep_backlog_timing_matches_eager_schedule(self, sim):
        ser = serialization_ps(1518, 100.0)
        a, b, pa, pb = wire(sim, delay=0)
        for i in range(50):
            pa.enqueue(data(flow=i))
        sim.run()
        # Lazy commits start exactly at next_free_ps: back-to-back wire
        # occupancy, identical to the eager commit-at-enqueue schedule.
        assert [t for t, _ in b.arrivals] == [(i + 1) * ser for i in range(50)]

    def test_lookahead_is_a_pure_performance_knob(self):
        from repro.sim.engine import Simulator

        def run(k):
            sim = Simulator()
            a, b, pa, pb = wire(sim, delay=1000)
            pa.commit_lookahead = k
            for i in range(30):
                pa.enqueue(data(flow=i, prio=0))
            pa.pause(0)
            sim.run(until=5 * serialization_ps(1518, 100.0))
            pa.resume(0)
            sim.run()
            return [(t, p.flow_id) for t, p in b.arrivals]

        assert run(1) == run(3) == run(1 << 30)


class TestResumeGuard:
    """Satellite audit: resume() early-returns on an empty queue.  Safe
    because a paused class's frames can only wait in its own queue — these
    regressions pin the interleavings that would strand the transmitter
    if the guard were wrong."""

    def wire2(self, sim, delay=0):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        pa, pb = connect(sim, a, b, 100.0, delay, n_prio=2)
        return a, b, pa, pb

    def test_resume_with_other_priority_backlog_paused(self, sim):
        # Both classes paused, backlog only on prio 1.  XON for empty
        # prio 0 takes the early return with the transmitter fully idle;
        # prio 1's own XON must still restart it.
        a, b, pa, pb = self.wire2(sim)
        pa.pause(0)
        pa.pause(1)
        for i in range(5):
            pa.enqueue(data(flow=i, prio=1))
        pa.resume(0)  # empty queue: early return
        sim.run(until=1_000_000)
        assert b.arrivals == []  # correctly still paused
        pa.resume(1)
        sim.run()
        assert [p.flow_id for _, p in b.arrivals] == [0, 1, 2, 3, 4]

    def test_resume_with_other_priority_parked_behind_window(self, sim):
        # Unpaused prio-0 backlog parked behind a full commit window; a
        # spurious XON for empty prio 1 early-returns.  The armed delivery
        # event must keep topping the window up — nothing may strand.
        a, b, pa, pb = self.wire2(sim)
        for i in range(50):
            pa.enqueue(data(flow=i, prio=0))
        assert pa._uncommitted > 0  # backlog parked beyond the window
        pa.resume(1)  # empty queue: early return, commits nothing
        sim.run()
        assert len(b.arrivals) == 50

    def test_pause_resume_cycle_on_empty_queue_keeps_schedule(self, sim):
        ser = serialization_ps(1518, 100.0)
        a, b, pa, pb = self.wire2(sim)
        for i in range(4):
            pa.enqueue(data(flow=i, prio=0))
        pa.pause(1)
        pa.resume(1)  # no prio-1 frames anywhere: pure no-op
        sim.run()
        assert [t for t, _ in b.arrivals] == [(i + 1) * ser for i in range(4)]


class TestUncommitBehindBackgroundDrain:
    """``bg_drain`` books serializer time without a frame, so a frame
    committed behind it waits with nothing in service ahead of it and an
    uncommit takes the whole of ``_inflight`` — including the frame the
    delivery event is armed for.  The event used to stay armed: it fired
    on an empty deque, or at the old head's time for a new head."""

    def test_pause_with_every_committed_frame_still_waiting(self, sim):
        ser = serialization_ps(1518, 100.0)
        a, b, pa, pb = wire(sim, delay=1000)
        pa.bg_drain(50_000)
        pa.enqueue(data())
        pa.pause(0)
        sim.run(until=10_000_000)  # IndexError: pop from an empty deque
        assert b.arrivals == []
        pa.resume(0)
        sim.run()
        assert [t for t, _ in b.arrivals] == [10_000_000 + ser + 1000]

    def test_control_frame_jumps_a_frame_waiting_behind_a_drain(self, sim):
        ser = serialization_ps(1518, 100.0)
        xoff = serialization_ps(64, 100.0)
        a, b, pa, pb = wire(sim, delay=1000)
        pa.bg_drain(50_000)
        free = pa.next_free_ps
        pa.enqueue(data())
        pa.enqueue(Packet(PAUSE, size=64))
        sim.run()
        # The control frame takes the first wire slot after the drained
        # bytes and arrives when *it* is through, not when the data frame
        # it displaced would have been.
        assert [(t, p.kind) for t, p in b.arrivals] == [
            (free + xoff + 1000, PAUSE),
            (free + xoff + ser + 1000, DATA),
        ]

