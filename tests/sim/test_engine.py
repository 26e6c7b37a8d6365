"""Engine semantics: ordering, cancellation, horizons, reentrancy."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        log = []
        sim.schedule(30, log.append, "c")
        sim.schedule(10, log.append, "a")
        sim.schedule(20, log.append, "b")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_run_in_insertion_order(self, sim):
        log = []
        for tag in "abc":
            sim.schedule(5, log.append, tag)
        sim.run()
        assert log == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(123, lambda _: seen.append(sim.now))
        sim.run()
        assert seen == [123]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda _: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(10, lambda _: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda _: None)

    def test_schedule_from_callback(self, sim):
        log = []

        def first(_):
            sim.schedule(5, log.append, "second")

        sim.schedule(10, first)
        sim.run()
        assert log == ["second"]
        assert sim.now == 15


class TestCancellation:
    def test_cancelled_event_does_not_run(self, sim):
        log = []
        ev = sim.schedule(10, log.append, "x")
        ev.cancel()
        sim.run()
        assert log == []

    def test_cancel_is_idempotent(self, sim):
        ev = sim.schedule(10, lambda _: None)
        ev.cancel()
        ev.cancel()
        assert sim.run() == 0

    def test_cancel_one_of_many(self, sim):
        log = []
        sim.schedule(1, log.append, "keep1")
        ev = sim.schedule(2, log.append, "drop")
        sim.schedule(3, log.append, "keep2")
        ev.cancel()
        sim.run()
        assert log == ["keep1", "keep2"]


class TestRunUntil:
    def test_until_is_inclusive(self, sim):
        log = []
        sim.schedule(100, log.append, "at")
        sim.schedule(101, log.append, "after")
        sim.run(until=100)
        assert log == ["at"]

    def test_clock_lands_on_horizon_when_queue_drains(self, sim):
        sim.schedule(10, lambda _: None)
        sim.run(until=500)
        assert sim.now == 500

    def test_remaining_events_run_on_next_call(self, sim):
        log = []
        sim.schedule(100, log.append, "late")
        sim.run(until=50)
        assert log == []
        sim.run(until=150)
        assert log == ["late"]

    def test_dispatch_count_returned(self, sim):
        for i in range(5):
            sim.schedule(i + 1, lambda _: None)
        assert sim.run(until=3) == 3
        assert sim.run() == 2

    def test_events_dispatched_accumulates(self, sim):
        for i in range(4):
            sim.schedule(i, lambda _: None)
        sim.run()
        assert sim.events_dispatched == 4


class TestStop:
    def test_run_not_reentrant(self, sim):
        def naughty(_):
            sim.run()

        sim.schedule(1, naughty)
        with pytest.raises(SimulationError):
            sim.run()


class TestPeek:
    def test_peek_returns_next_live_time(self, sim):
        ev = sim.schedule(5, lambda _: None)
        sim.schedule(9, lambda _: None)
        assert sim.peek() == 5
        ev.cancel()
        assert sim.peek() == 9

    def test_peek_empty(self, sim):
        assert sim.peek() is None


class TestScale:
    def test_many_events_in_order(self, sim):
        import random

        rng = random.Random(0)
        times = [rng.randrange(1, 10_000_000) for _ in range(5000)]
        seen = []
        for t in times:
            sim.schedule(t, seen.append, t)
        sim.run()
        assert seen == sorted(times)
