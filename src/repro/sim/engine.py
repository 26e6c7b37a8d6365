"""The discrete-event engine.

Design notes
------------
* Time is an integer picosecond count (see :mod:`repro.units`).  Integer
  timestamps make the event order total and deterministic: ties are broken
  first by the event's *lane* — a small static id allocated per simulation
  entity (node, port) in construction order — then by insertion sequence
  number.  Lane order is a property of the topology, not of execution
  history, which is what makes the order reproducible across the sharded
  engine's partitioned heaps (DESIGN.md §4.1/§11): two same-instant events
  on different entities compare by lane on every shard exactly as they do
  serially, and same-lane events belong to a single entity (hence a single
  shard) whose causal creation order the shard replays.
* The heap stores ``(key, event)`` pairs, ``key`` being the packed
  ``(time, lane, seq)`` integer, so every sift comparison is a single
  C-speed int compare (``seq`` is unique per simulator, so the tuple
  compare never reaches the event) — at the heap depths of fat-tree
  scenarios (hundreds of armed ports and timers) this beats both a
  tuple-of-fields representation and Python-level ``__lt__`` dispatch.
  Cancellation marks the event dead instead of removing it from the heap
  (lazy deletion), which is both simpler and faster for the cancel-rarely
  workloads of a network sim.
* Events are ordinary garbage-collected objects (DESIGN.md §2.3): every
  ``schedule`` constructs one, and a handle held past its callback is
  inert — cancelling it does nothing.
* ``schedule_reuse`` is the self-rescheduling fast path: a callback may
  re-arm *its own* event object (the one currently being dispatched)
  instead of allocating a new one.  Calling it on any event that is still
  in the heap corrupts the queue — :class:`repro.sim.timer.Periodic` is
  the canonical user.
* Callbacks receive a single ``arg`` payload.  We intentionally do not
  support ``*args``: one payload slot per event is the hot-path budget.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

#: Packed event-key layout: ``time << 64 | lane << 44 | seq``.  44 bits of
#: sequence space is ~17.6 trillion events per run; 20 bits of lane space is
#: ~1M entities — both far beyond any scenario, and Python's unbounded ints
#: absorb the time field above them.  Lane 0 is reserved for un-laned events
#: (experiment drivers, fault injectors) so allocated entity lanes can never
#: collide with the default.
LANE_BITS = 20
SEQ_BITS = 44
_MAX_LANES = 1 << LANE_BITS

#: ``run(until=None)``'s horizon: compares above every packed event key, so
#: the drain case is the horizon loop with a bound no event reaches.
_NO_HORIZON = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests or a corrupted event queue."""


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    The only public operation is :meth:`cancel`; everything else is owned by
    the engine.

    Dispatch order is by ``(time, lane, seq)``, packed at each push into
    the heap entry's integer key (``time << 64 | lane << 44 | seq``); the
    event itself carries no ordering state.  The lane (see
    :meth:`Simulator.alloc_lane`) makes same-instant cross-entity ordering
    a static topology property rather than an execution-history accident —
    the invariant the sharded engine's byte-identity rests on.
    """

    __slots__ = ("time", "lane", "fn", "arg", "alive")

    def __init__(
        self,
        time: int,
        fn: Callable[[Any], None],
        arg: Any,
        lane: int = 0,
    ) -> None:
        self.time = time
        self.lane = lane
        self.fn = fn
        self.arg = arg
        self.alive = True

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call repeatedly, and
        a no-op once the callback has run."""
        self.alive = False


class Simulator:
    """A single-threaded discrete-event simulator with integer time.

    Typical use::

        sim = Simulator()
        sim.schedule(units.us(5), my_callback, payload)
        sim.run(until=units.ms(1))
    """

    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "_lanes",
        "_running",
        "events_dispatched",
        "obs",
        "monitors",
        "faults",
    )

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list = []
        self._seq: int = 0
        self._lanes: int = 0
        self._running: bool = False
        self.events_dispatched: int = 0
        # The run's observability bundle (repro.obs.RunObservability), set
        # by its attach(); None on un-instrumented runs.  Registry reads are
        # pull-based, so this costs nothing on the dispatch path.
        self.obs = None
        # The run's armed FaultInjector (repro.faults), set by its arm();
        # None on healthy runs.  Read only by cold paths (flight dumps,
        # audits), never by the dispatch loop.
        self.faults = None
        # Periodic samplers registered for auto-stop (see stop_monitors).
        self.monitors: list = []

    # -- lanes --------------------------------------------------------------
    def alloc_lane(self) -> int:
        """Allocate the next tie-break lane (see :class:`Event`).

        Lanes must be allocated only on code paths every replica of the run
        executes identically — in practice topology construction (nodes and
        ports) — so serial and sharded builds of the same fabric agree on
        every lane id.  Anything scheduling on behalf of an entity (timers,
        samplers, congestion control) passes that entity's existing lane
        instead of allocating its own.  Lane 0 is reserved for un-laned
        events."""
        lane = self._lanes + 1
        if lane >= _MAX_LANES:
            raise SimulationError("tie-break lane space exhausted")
        self._lanes = lane
        return lane

    # -- scheduling ---------------------------------------------------------
    def schedule(
        self,
        delay: int,
        fn: Callable[[Any], None],
        arg: Any = None,
        lane: int = 0,
    ) -> Event:
        """Schedule ``fn(arg)`` to run ``delay`` picoseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        # schedule_at's body, flattened: timers re-arm on every ACK, so the
        # extra frame matters.
        time = self.now + delay
        self._seq = seq = self._seq + 1
        ev = Event(time, fn, arg, lane)
        heappush(self._heap, ((time << 64) | (lane << 44) | seq, ev))
        return ev

    def schedule_at(
        self,
        time: int,
        fn: Callable[[Any], None],
        arg: Any = None,
        lane: int = 0,
    ) -> Event:
        """Schedule ``fn(arg)`` at absolute time ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        self._seq = seq = self._seq + 1
        ev = Event(time, fn, arg, lane)
        heappush(self._heap, ((time << 64) | (lane << 44) | seq, ev))
        return ev

    def schedule_reuse(self, ev: Event, delay: int) -> Event:
        """Re-arm ``ev`` — the event whose callback is currently running —
        ``delay`` ps from now, keeping its callback and payload.

        NOTE: ``Port._tx_deliver`` inlines this body (including the key
        packing) for the per-frame delivery loop — change them together.

        Only valid from within ``ev``'s own callback (the dispatcher has
        already popped it from the heap); using it on an event that may
        still be queued corrupts the heap.  Skips the allocation that
        ``schedule`` would pay.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq = seq = self._seq + 1
        time = self.now + delay
        ev.time = time
        ev.alive = True
        heappush(self._heap, ((time << 64) | (ev.lane << 44) | seq, ev))
        return ev

    # -- execution ----------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Dispatch events in time order.

        Runs until the queue drains or the clock would pass ``until``
        (events at exactly ``until`` *do* run).  Returns the number of
        events dispatched by this call.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        dispatched = 0
        heap = self._heap
        pop = heappop
        # Horizon test hoisted into key space: one compare per iteration
        # covers "time > until" exactly; pop first and push back on the
        # (once-per-run) horizon hit — cheaper than peeking every
        # iteration.  ``until=None`` (drain the queue) is the same loop
        # under a horizon no key reaches.
        horizon_key = _NO_HORIZON if until is None else (until + 1) << 64
        try:
            while heap:
                item = pop(heap)
                if item[0] >= horizon_key:
                    heappush(heap, item)
                    break
                ev = item[1]
                if not ev.alive:
                    continue  # lazy deletion: cancelled in place
                self.now = ev.time
                ev.alive = False
                ev.fn(ev.arg)
                dispatched += 1
        finally:
            self._running = False
        if until is not None and self.now < until:
            # Advance the clock to the horizon even if the queue drained,
            # so back-to-back run(until=...) calls observe monotonic time.
            self.now = until
        self.events_dispatched += dispatched
        return dispatched

    def peek(self) -> Optional[int]:
        """Time of the next live event, or None if the queue is empty."""
        heap = self._heap
        while heap:
            ev = heap[0][1]
            if ev.alive:
                return ev.time
            heappop(heap)
        return None

    def register_monitor(self, monitor) -> None:
        """Register a sampler-like object (anything with ``stop()``) for
        :meth:`stop_monitors`.  Samplers self-register at construction so a
        run that raises can disarm every pending ``Periodic`` in one call
        (the flight recorder does exactly that before dumping state)."""
        self.monitors.append(monitor)

    def stop_monitors(self) -> None:
        """Stop every registered monitor.  Idempotent: each monitor's own
        ``stop()`` is required to tolerate repeated calls."""
        for monitor in self.monitors:
            monitor.stop()
        self.monitors.clear()

    def queue_len(self) -> int:
        """Number of events in the heap (including cancelled ones)."""
        return len(self._heap)
