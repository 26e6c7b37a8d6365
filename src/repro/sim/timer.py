"""Cancellable and periodic timers layered on the engine.

DCQCN alone needs three independent timers per flow (alpha update, rate
increase, CNP pacing), so restartable timers are first-class here.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Event, Simulator


class Timer:
    """A restartable one-shot timer.

    ``start`` (re-)arms the timer; ``cancel`` disarms it.  The callback is
    invoked with None, the engine's event argument.
    """

    __slots__ = ("_sim", "_fn", "_event", "_lane")

    def __init__(
        self, sim: Simulator, fn: Callable[[Any], None], lane: int = 0
    ) -> None:
        self._sim = sim
        self._fn = fn
        self._lane = lane
        self._event: Optional[Event] = None

    def start(self, delay: int) -> None:
        """Arm (or re-arm) the timer ``delay`` ps from now."""
        self.cancel()
        self._event = self._sim.schedule(delay, self._fire, None, self._lane)

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self, arg: Any) -> None:
        self._event = None
        self._fn(arg)


class Periodic:
    """A fixed-interval repeating callback (used by monitors and RoCC's PI).

    The callback runs first at ``start + interval`` (or ``start + offset`` if
    given), then every ``interval``.  ``stop`` halts it.  The callback
    receives the simulator time of the tick.
    """

    __slots__ = ("_sim", "_fn", "interval", "_event", "_running", "_lane")

    def __init__(
        self,
        sim: Simulator,
        interval: int,
        fn: Callable[[int], None],
        lane: int = 0,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._sim = sim
        self._fn = fn
        self._lane = lane
        self.interval = interval
        self._event: Optional[Event] = None
        self._running = False

    def start(self, offset: Optional[int] = None) -> None:
        if self._running:
            # census: a second start — tests/sim/test_timer.py::TestPeriodic::test_start_idempotent
            return
        self._running = True
        delay = self.interval if offset is None else offset
        self._event = self._sim.schedule(delay, self._tick, None, self._lane)

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self, _arg: Any) -> None:
        # Re-arm the event object currently being dispatched (engine fast
        # path): monitors tick every microsecond, so this shaves an event
        # allocation per sample.
        self._event = self._sim.schedule_reuse(self._event, self.interval)
        self._fn(self._sim.now)
