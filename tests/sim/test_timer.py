"""Timer and Periodic behaviour (DCQCN and the monitors depend on these)."""

from repro.sim.timer import Periodic, Timer

import pytest


class TestTimer:
    def test_fires_once(self, sim):
        log = []
        t = Timer(sim, lambda arg: log.append((sim.now, arg)))
        t.start(100)
        sim.run()
        assert log == [(100, None)]
        assert t._event is None

    def test_restart_supersedes(self, sim):
        log = []
        t = Timer(sim, lambda arg: log.append(sim.now))
        t.start(100)
        t.start(50)
        sim.run()
        assert log == [50]

    def test_cancel(self, sim):
        log = []
        t = Timer(sim, log.append)
        t.start(100)
        t.cancel()
        sim.run()
        assert log == []

    def test_rearm_from_callback(self, sim):
        log = []

        def fire(arg):
            log.append(sim.now)
            if len(log) < 3:
                t.start(10)

        t = Timer(sim, fire)
        t.start(10)
        sim.run()
        assert log == [10, 20, 30]


class TestPeriodic:
    def test_fixed_cadence(self, sim):
        ticks = []
        p = Periodic(sim, 100, ticks.append)
        p.start()
        sim.run(until=350)
        assert ticks == [100, 200, 300]

    def test_offset_start(self, sim):
        ticks = []
        p = Periodic(sim, 100, ticks.append)
        p.start(offset=0)
        sim.run(until=250)
        assert ticks == [0, 100, 200]

    def test_stop(self, sim):
        ticks = []
        p = Periodic(sim, 10, ticks.append)
        p.start()
        sim.run(until=25)
        p.stop()
        sim.run(until=100)
        assert ticks == [10, 20]

    def test_start_idempotent(self, sim):
        ticks = []
        p = Periodic(sim, 10, ticks.append)
        p.start()
        p.start()
        sim.run(until=10)
        assert ticks == [10]

    def test_rejects_nonpositive_interval(self, sim):
        with pytest.raises(ValueError):
            Periodic(sim, 0, lambda t: None)

    def test_stop_from_callback(self, sim):
        ticks = []

        def cb(t):
            ticks.append(t)
            if len(ticks) == 2:
                p.stop()

        p = Periodic(sim, 10, cb)
        p.start()
        sim.run(until=1000)
        assert ticks == [10, 20]
