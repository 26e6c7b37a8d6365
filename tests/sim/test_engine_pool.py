"""Engine edge cases around the hot-path machinery: lazy cancellation,
peek() pruning, run(until=...) clock advance, non-reentrancy, event
lifetime (a handle held past its callback is inert: cancelling it never
touches a later event), and the one dispatch loop (no debug mode)."""

import importlib

import pytest

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.timer import Periodic, Timer


class TestLazyCancellation:
    def test_cancelled_event_stays_in_heap_until_popped(self, sim):
        ev = sim.schedule(10, lambda _: None)
        ev.cancel()
        assert sim.queue_len() == 1  # lazy: not physically removed
        sim.run()
        assert sim.queue_len() == 0
        assert sim.events_dispatched == 0

    def test_cancel_inside_own_callback_is_harmless(self, sim):
        log = []

        def cb(_):
            holder[0].cancel()  # self-cancel during dispatch
            log.append("ran")

        holder = [sim.schedule(5, cb)]
        sim.run()
        assert log == ["ran"]

    def test_cancel_via_direct_alive_flag(self, sim):
        # Internal fast path used by the sender's pace event.
        log = []
        ev = sim.schedule(5, log.append, "x")
        ev.alive = False
        sim.run()
        assert log == []


class TestPeekPruning:
    def test_peek_prunes_dead_head(self, sim):
        ev = sim.schedule(5, lambda _: None)
        sim.schedule(9, lambda _: None)
        ev.cancel()
        assert sim.peek() == 9
        # The dead head was physically removed.
        assert sim.queue_len() == 1

    def test_peek_drains_all_dead(self, sim):
        evs = [sim.schedule(i + 1, lambda _: None) for i in range(5)]
        for ev in evs:
            ev.cancel()
        assert sim.peek() is None
        assert sim.queue_len() == 0


class TestRunUntilClock:
    def test_clock_advances_to_horizon_on_drained_queue(self, sim):
        sim.schedule(10, lambda _: None)
        sim.run(until=500)
        assert sim.now == 500

    def test_clock_advances_even_with_empty_queue(self, sim):
        sim.run(until=123)
        assert sim.now == 123

    def test_event_exactly_at_horizon_runs(self, sim):
        log = []
        sim.schedule(100, log.append, "edge")
        sim.run(until=100)
        assert log == ["edge"]
        assert sim.now == 100

    def test_event_past_horizon_survives_for_next_run(self, sim):
        log = []
        sim.schedule(100, log.append, "late")
        sim.run(until=50)
        assert log == []
        assert sim.queue_len() == 1  # pushed back, not lost
        sim.run(until=150)
        assert log == ["late"]


class TestReentrancy:
    def test_run_inside_callback_raises(self, sim):
        def naughty(_):
            sim.run()

        sim.schedule(1, naughty)
        with pytest.raises(SimulationError):
            sim.run()

    def test_engine_usable_after_reentrancy_error(self, sim):
        def naughty(_):
            sim.run()

        sim.schedule(1, naughty)
        with pytest.raises(SimulationError):
            sim.run()
        log = []
        sim.schedule(1, log.append, "ok")
        sim.run()
        assert log == ["ok"]


class TestEventPool:
    def test_event_carries_no_ordering_state(self):
        assert Event.__slots__ == ("time", "lane", "fn", "arg", "alive")

    def test_recycling_never_resurrects_cancelled_callback(self, sim):
        """Cancelling a handle after its callback ran, or after its
        cancelled entry popped, never affects a later event: every
        ``schedule`` returns a fresh object."""
        log = []
        ev = sim.schedule(1, log.append, "a")
        sim.run()
        later = sim.schedule(1, log.append, "b")
        assert later is not ev
        ev.cancel()  # stale handle: its callback already ran
        sim.run()
        assert log == ["a", "b"]

        dead = sim.schedule(5, log.append, "OLD")
        dead.cancel()
        sim.run()  # pops the cancelled entry
        new = sim.schedule(7, log.append, "NEW")
        assert new is not dead
        dead.cancel()
        sim.run()
        assert log == ["a", "b", "NEW"]

    def test_fired_timer_handle_is_inert(self, sim):
        log = []
        timer = Timer(sim, lambda _arg: log.append("timeout"))
        timer.start(10)
        fired = timer._event
        sim.run()
        assert log == ["timeout"]
        sim.schedule(1, log.append, "later")
        fired.cancel()  # stale: the timer already fired
        timer.cancel()
        sim.run()
        assert log == ["timeout", "later"]

    def test_stopped_periodic_handle_is_inert(self, sim):
        ticks, log = [], []
        periodic = Periodic(sim, 100, ticks.append)
        periodic.start()
        armed = periodic._event
        sim.run(until=250)
        periodic.stop()
        sim.run()  # pops the cancelled re-arm
        sim.schedule(1, log.append, "later")
        armed.cancel()
        periodic.stop()
        sim.run()
        assert ticks == [100, 200]
        assert log == ["later"]

    def test_keys_strictly_ordered_for_ties(self, sim):
        log = []
        sim.schedule(5, log.append, "a")
        sim.schedule(5, log.append, "b")
        sim.run()
        assert log == ["a", "b"]  # same time, insertion order breaks the tie


class TestScheduleReuse:
    def test_reuse_from_own_callback_fires_again(self, sim):
        log = []

        def tick(_):
            log.append(sim.now)
            if len(log) < 3:
                sim.schedule_reuse(holder[0], 10)

        holder = [sim.schedule(10, tick)]
        sim.run()
        assert log == [10, 20, 30]

    def test_reuse_negative_delay_rejected(self, sim):
        def cb(_):
            with pytest.raises(SimulationError):
                sim.schedule_reuse(holder[0], -1)

        holder = [sim.schedule(1, cb)]
        sim.run()


class TestReuseThenCancel:
    """Regression: a schedule_reuse'd event cancelled later in the same
    callback is back in the heap — it must pop as a dead entry, once."""

    def test_periodic_stopping_itself_does_not_corrupt_pool(self, sim):
        ticks = []

        def fn(now):
            ticks.append(now)
            if len(ticks) == 2:
                periodic.stop()  # cancels the event _tick just re-armed

        periodic = Periodic(sim, 100, fn)
        periodic.start()
        log = []
        sim.schedule(300, log.append, "other")
        # Follow-up events must be unaffected by the cancelled re-arm.
        sim.schedule(505, log.append, "late")
        sim.run()
        assert ticks == [100, 200]
        assert log == ["other", "late"]

    def test_clock_stays_monotonic_after_reuse_cancel(self, sim):
        seen = []

        def fn(now):
            if now >= 200:
                periodic.stop()

        periodic = Periodic(sim, 100, fn)
        periodic.start()
        sim.schedule(300, lambda _: seen.append(sim.now))
        ev = sim.schedule(505, lambda _: seen.append(sim.now))
        assert ev is not None
        sim.run()
        assert seen == [300, 505]  # strictly ordered, no time travel

    def test_rearmed_then_cancelled_shell_recycled_via_lazy_deletion(self, sim):
        calls = []

        def fn(_):
            calls.append(sim.now)
            sim.schedule_reuse(holder[0], 50)
            holder[0].cancel()

        holder = [sim.schedule(10, fn)]
        sim.run()
        # The callback ran once; the cancelled re-arm popped without firing.
        assert calls == [10]
        assert sim.events_dispatched == 1
        assert sim.queue_len() == 0


class TestOneRunLoop:
    """``Simulator.run`` is the engine's only dispatch loop: the engine
    takes no arguments, reads no environment variable, and has no
    tie-instrumented twin (DESIGN.md §2.3)."""

    def test_simulator_takes_no_arguments(self):
        with pytest.raises(TypeError):
            Simulator(sanitize="tie")

    def test_environment_is_not_read(self, monkeypatch):
        from repro.experiments.fct_experiment import run_fct_experiment

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        base = run_fct_experiment(cc="fncc", n_flows=12, seed=11).fct_fingerprint()
        monkeypatch.setenv("REPRO_SANITIZE", "tie")
        assert not hasattr(Simulator(), "tie_recorder")
        assert run_fct_experiment(cc="fncc", n_flows=12, seed=11).fct_fingerprint() == base

    def test_the_sanitize_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.sim.sanitize")

    def test_run_has_no_twin(self):
        assert not hasattr(Simulator, "_run_tie")
        assert not hasattr(Simulator, "tie_report")
