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

    # -- wiring -------------------------------------------------------------
    def attach(self, sim, topo, collector=None) -> "RunObservability":
        """Bind the bundle to a run's simulator + fabric (one run: a
        registry refuses a second simulator)."""
        if self.registry is not None:
            self.registry.bind_sim(sim)
            self.registry.bind_topo(topo)
            if collector is not None:
                self.registry.bind_fct(collector)
        if self.tracer is not None:
            self.tracer.attach(topo)
        # census: a flight recorder in the bundle — tests/obs/test_flight.py::TestGuardDump::test_fluid_stall_dumps_state
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
        # census: a flight recorder in the bundle — tests/obs/test_flight.py::TestGuardDump::test_fluid_stall_dumps_state
        if self.flight is not None:
            return self.flight.guard(sim=sim, topo=topo)
        return nullcontext()

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
