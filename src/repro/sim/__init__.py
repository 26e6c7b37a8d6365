"""Discrete-event simulation core (the OMNeT++ substitute).

The engine is deliberately tiny and callback-based: the hot path of a
packet-level network simulation is event dispatch, and a heapq of
``(key, event)`` pairs — ``key`` the packed ``(time, lane, seq)`` integer —
dispatches several hundred thousand events per second in CPython.  Richer
abstractions (cancellable timers, periodic processes) are layered on top
without touching the hot path.
"""

from repro.sim.engine import Simulator, Event, SimulationError
from repro.sim.timer import Timer, Periodic
from repro.sim.rng import SeedSequenceFactory

__all__ = [
    "Simulator",
    "Event",
    "SimulationError",
    "Timer",
    "Periodic",
    "SeedSequenceFactory",
]
