"""Run telemetry subsystem (DESIGN.md §8): metrics registry, structured
event tracing, flight recorder and live progress.

Everything here is **per-run owned, never global**: experiments build a
:class:`RunObservability` bundle, attach it to one simulator + fabric,
and ship its snapshot with the run's summary.  Registry/counter-level
observability is pull-based and byte-identical (fingerprints are pinned
with it on and off, on the fused and the classic hop path —
``tests/obs``); every tracer hook is train-safe (see
:mod:`repro.obs.trace`).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional

from repro import _lazy_exports
from repro.obs.registry import (
    Counter,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.trace import CATEGORIES, EventTracer, TraceEvent
from repro.obs.flight import FlightRecorder
from repro.obs.progress import ProgressReporter

# Resolved on first access, so ``python -m repro.obs.export`` does not find
# its own module imported already by the package it lives in.
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.obs.export": (
            "chrome_trace_events", "export_chrome_trace", "validate_chrome_trace",
        ),
    },
)[:2]

#: Cap on per-item trace emissions from aggregate phases (e.g. one event
#: per demoted flow in the hybrid classify pass) so a 100k-flow demotion
#: burst cannot monopolize the ring.
PER_PHASE_EVENT_CAP = 512


class RunObservability:
    """The bundle one run carries: any subset of registry / tracer /
    flight recorder / progress reporter.

    >>> obs = RunObservability(registry=MetricsRegistry(),
    ...                        tracer=EventTracer(),
    ...                        progress=ProgressReporter(label="fncc"))
    >>> result = run_fct_experiment("fncc", obs=obs)
    >>> obs.snapshot()["counters"]["engine.events_dispatched"]
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[EventTracer] = None,
        flight: Optional[FlightRecorder] = None,
        progress: Optional[ProgressReporter] = None,
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        self.flight = flight
        self.progress = progress
        self._sim = None  # last-attached simulator (rebuild detection)

    # -- wiring -------------------------------------------------------------
    def attach(self, sim, topo, collector=None) -> "RunObservability":
        """Bind the bundle to a run's simulator + fabric.  Called again on
        a rebuilt fabric (hybrid refine rounds) it re-binds everything to
        the new one — the discarded fabric's collectors and tracer hooks
        are dropped first so it stops contributing to snapshots."""
        if self._sim is not None and self._sim is not sim:
            if self.registry is not None:
                self.registry.reset_run_bindings()
            if self.tracer is not None:
                self.tracer.detach()
        self._sim = sim
        if getattr(sim, "obs", None) is not self:
            try:
                sim.obs = self
            except AttributeError:  # simulator-like test doubles
                pass
        if self.registry is not None:
            self.registry.bind_sim(sim)
            self.registry.bind_topo(topo)
            if collector is not None:
                self.registry.bind_fct(collector)
        if self.tracer is not None:
            self.tracer.attach(topo)
        if self.flight is not None:
            self.flight.bind(
                sim=sim, topo=topo, tracer=self.tracer, registry=self.registry
            )
        return self

    def detach(self) -> None:
        """Unwind tracer hooks (registry collectors are passive reads and
        need no teardown)."""
        if self.tracer is not None:
            self.tracer.detach()

    def guard(self, sim=None, topo=None):
        """Flight-recorder context for a drive phase; a no-op context when
        no recorder is configured."""
        if self.flight is not None:
            return self.flight.guard(sim=sim, topo=topo)
        return nullcontext()

    # -- cold-path emission helpers ----------------------------------------
    def phase(self, name: str, **info) -> None:
        """Announce a phase transition: progress line + hybrid trace event
        (at simulated time 0: the hybrid phases sit between simulations)."""
        if self.progress is not None:
            self.progress.phase(name, **info)
        if self.tracer is not None:
            self.tracer.emit("hybrid", name, 0, args=info or None)

    def trace_each(self, cat: str, name: str, items, key: str = "id") -> None:
        """Emit one instant event per item at simulated time 0, capped at
        :data:`PER_PHASE_EVENT_CAP` (the cap is recorded as a counter so
        truncation is never silent)."""
        if self.tracer is None:
            return
        items = list(items)
        for item in items[:PER_PHASE_EVENT_CAP]:
            self.tracer.emit(cat, name, 0, args={key: item})
        if len(items) > PER_PHASE_EVENT_CAP and self.registry is not None:
            self.registry.counter(f"trace.{name}_truncated").inc(
                len(items) - PER_PHASE_EVENT_CAP
            )

    def observe_hybrid(self, stats) -> None:
        if self.registry is not None:
            self.registry.observe_hybrid(stats)

    def snapshot(self) -> Optional[dict]:
        return self.registry.snapshot() if self.registry is not None else None


__all__ = [
    "CATEGORIES",
    "Counter",
    "MetricsRegistry",
    "EventTracer",
    "TraceEvent",
    "FlightRecorder",
    "ProgressReporter",
    "RunObservability",
    "chrome_trace_events",
    "export_chrome_trace",
    "validate_chrome_trace",
    "merge_snapshots",
]
