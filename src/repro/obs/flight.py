"""Flight recorder: crash-state dumps for failed runs (DESIGN.md §8).

A long run that dies with a ``FluidStallError`` at 100k flows is
undebuggable from the traceback alone — the state that explains it (queue
depths, paused ports, unfinished flows, the last few hundred trace
events) is gone with the process.  :class:`FlightRecorder` wraps the run
in a :meth:`guard` context; on *any* exception it stops the registered
samplers, serializes engine / port / flow state plus the trace ring's
tail and the registry snapshot to a JSON diagnosis file, and re-raises.

File format (all keys optional except ``exception``)::

    {
      "exception": {"type", "message", "traceback", "worker_traceback"},
      "engine":    {"now_ps", "events_dispatched", "queue_len"},
      "ports":     [{"node", "port", "qbytes", "paused", ...counters}, ...],
      "flows":     [{"flow", "host", "size", "acked", "rate_gbps"}, ...],
      "trace_tail": [last-N TraceEvent dicts, oldest first],
      "registry":  <MetricsRegistry snapshot>,
      "faults":    {"plan", "counters", "timeline", "active", "audit"}
    }

The ``faults`` section appears only when the run armed a
:class:`~repro.faults.FaultInjector` (``sim.faults``) — healthy runs dump
the same schema as before.

``ports`` and ``flows`` are bounded (busiest/unfinished first) so a dump
at million-flow scale stays readable and quick to write.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import traceback
from contextlib import contextmanager
from typing import Optional

#: Trace events a dump keeps (the ring's newest).
LAST_N = 256
#: Rows a dump keeps of ``ports`` and of ``flows`` each.
MAX_ITEMS = 64


class FlightRecorder:
    """Per-run crash-dump writer.

    >>> flight = FlightRecorder(path="diag.json", tracer=tracer)
    >>> with flight.guard(sim=fab.sim, topo=fab.topo):
    ...     drive_fct(...)
    """

    def __init__(
        self,
        path: Optional[str] = None,
        tracer=None,
        registry=None,
    ) -> None:
        self.path = path
        self.tracer = tracer
        self.registry = registry
        self.sim = None
        self.topo = None
        #: path of the last dump written (None until a crash).
        self.dumped_path: Optional[str] = None

    def bind(self, sim=None, topo=None, tracer=None, registry=None) -> None:
        """Bind live run state, so a crash dumps the run it happened in."""
        if sim is not None:
            self.sim = sim
        if topo is not None:
            self.topo = topo
        if tracer is not None:
            self.tracer = tracer
        if registry is not None:
            self.registry = registry

    @contextmanager
    def guard(self, sim=None, topo=None):
        """Context manager: dump on any exception, then re-raise."""
        self.bind(sim=sim, topo=topo)
        try:
            yield self
        except Exception as exc:
            self.dump(exc)
            raise

    # -- dumping ------------------------------------------------------------
    def dump(self, exc: Optional[BaseException] = None) -> str:
        """Write the diagnosis file; returns its path.  Never raises — a
        recorder that dies while recording would mask the real failure."""
        try:
            return self._dump(exc)
        except Exception as dump_exc:  # pragma: no cover - last resort
            print(f"[obs] flight recorder failed: {dump_exc!r}", file=sys.stderr)
            return ""

    def _dump(self, exc: Optional[BaseException]) -> str:
        sim = self.sim
        if sim is not None:
            # Disarm pending samplers first: a dump must not leave armed
            # Periodics behind on a simulator someone may keep stepping.
            stop = getattr(sim, "stop_monitors", None)
            if stop is not None:
                stop()
        doc: dict = {"exception": self._exception_dict(exc)}
        if sim is not None:
            doc["engine"] = {
                "now_ps": sim.now,
                "events_dispatched": sim.events_dispatched,
                "queue_len": sim.queue_len(),
            }
        if self.topo is not None:
            doc["ports"] = self._port_states()
            doc["flows"] = self._flow_states()
        if self.tracer is not None:
            doc["trace_tail"] = [ev.to_dict() for ev in self.tracer.tail(LAST_N)]
            doc["trace_counts"] = dict(self.tracer.counts)
        if self.registry is not None:
            doc["registry"] = self.registry.snapshot()
        inj = getattr(sim, "faults", None)
        if inj is not None:
            doc["faults"] = inj.flight_state()
        path = self.path or os.path.join(
            tempfile.gettempdir(), f"flightrec-{os.getpid()}.json"
        )
        with open(path, "w") as fh:
            json.dump(doc, fh, default=str)
        self.dumped_path = path
        print(f"[obs] flight recorder wrote {path}", file=sys.stderr)
        return path

    @staticmethod
    def _exception_dict(exc: Optional[BaseException]) -> dict:
        if exc is None:
            return {"type": None, "message": "dump() called without exception"}
        d = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        }
        # SweepError carries the worker-side traceback — surface it.
        wtb = getattr(exc, "worker_traceback", None)
        if wtb:
            d["worker_traceback"] = wtb
        key = getattr(exc, "key", None)
        if key is not None:
            d["sweep_key"] = repr(key)
        return d

    def _port_states(self) -> list:
        from repro.net.port import COUNTERS, read_counters

        ranked = []
        for node in self.topo.nodes():
            for port in node.ports:
                qbytes = getattr(port, "qbytes_total", 0)
                row = {"node": node.name, "port": port.index, "qbytes": qbytes}
                row.update(zip(COUNTERS, read_counters(port)))
                row["paused"] = port.paused
                ranked.append(((qbytes, port.drops, port.pause_sent), row))
        # Busiest first (backlog, then drops/pauses), bounded.
        ranked.sort(key=lambda kr: kr[0], reverse=True)
        return [row for _key, row in ranked[:MAX_ITEMS]]

    def _flow_states(self) -> list:
        rows = []
        for host in getattr(self.topo, "hosts", ()):
            for flow_id, qp in getattr(host, "senders", {}).items():
                if getattr(qp, "finished", False):
                    continue
                rows.append(
                    {
                        "flow": flow_id,
                        "host": host.name,
                        "size": getattr(getattr(qp, "flow", None), "size_bytes", None),
                        "acked": getattr(qp, "snd_una", None),
                        "rate_gbps": round(getattr(qp, "rate_gbps", 0.0), 3),
                    }
                )
                if len(rows) >= MAX_ITEMS:
                    return rows
        return rows
