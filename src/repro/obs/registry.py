"""The run-owned metrics registry (DESIGN.md §8).

One :class:`MetricsRegistry` per run, never global: experiments construct
it, bind the run's simulator/fabric, and ship the :meth:`snapshot` dict
with the run's summary.  Aggregation is **pull-based** — the registry
never wraps anything on the hot path; at snapshot time it reads the
counters the fabric already maintains (each :class:`repro.net.port.Port`'s,
engine dispatch/heap counters, LB reroute tallies).  That is what makes
registry-level observability byte-identical and train-safe by
construction: enabling it changes no event, no RNG draw, and no wire
timestamp (pinned by ``tests/obs``).

The push-style instrument, :class:`Counter`, exists for *cold* paths —
phase transitions, flight dumps, per-flow completions — and for
subsystems that want named metrics without growing their own ad-hoc
dicts.

Snapshots are plain JSON-able dicts so they pickle back from ``exec``
workers, forked or spawned; :func:`merge_snapshots` is the reduce step
(counters sum, gauges max).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class MetricsRegistry:
    """Named instruments plus pull collectors, snapshotted to one dict.

    Ownership rule: a registry belongs to exactly one run (one simulator,
    one fabric).  Binding a second simulator raises — merged views are the
    job of :func:`merge_snapshots`, not of a shared registry (a global
    registry would double-count rebuilt fabrics and break worker merges).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        #: snapshot-time readers; each returns ({counter: n}, {gauge: v}).
        self._collectors: List[Callable[[], tuple]] = []
        self._sim = None

    # -- instruments (push, cold paths only) -------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    # -- pull collectors ----------------------------------------------------
    def bind_sim(self, sim) -> None:
        """Aggregate the engine's own counters at snapshot time."""
        if self._sim is not None and self._sim is not sim:
            raise ValueError(
                "MetricsRegistry is per-run: already bound to another "
                "Simulator (build a fresh registry, merge snapshots instead)"
            )
        self._sim = sim

        def read():
            return (
                {"engine.events_dispatched": sim.events_dispatched},
                {
                    "engine.now_ps": sim.now,
                    "engine.queue_len": sim.queue_len(),
                },
            )

        self._collectors.append(read)

    def bind_topo(self, topo) -> None:
        """Aggregate every port's counters, switch buffer state
        and any LB strategy counters of a topology.  Each of
        :data:`repro.net.port.COUNTERS` is a ``ports.<name>`` counter (the
        PFC ledger's four are ``pfc.<name>``), except ``ports.max_qlen``, a
        high watermark, which is a gauge: the max over ports."""
        from repro.metrics.monitors import port_totals
        from repro.net.port import COUNTERS, PFC_COUNTERS

        def read():
            nodes = topo.nodes()
            gauges = {
                "ports.max_qlen": max(
                    (port.max_qlen for node in nodes for port in node.ports), default=0
                ),
                "switches.buffer_used_max": 0,
            }
            totals = port_totals(nodes)
            counters = {
                "ports." + name: totals[name]
                for name in COUNTERS
                if name not in PFC_COUNTERS and "ports." + name not in gauges
            }
            counters.update(("pfc." + name, totals[name]) for name in PFC_COUNTERS)
            seen_lbs = set()
            for node in nodes:
                buf = getattr(node, "buffer_used", None)
                if buf is not None and buf > gauges["switches.buffer_used_max"]:
                    # census: a switch buffer in use — tests/obs/test_flight.py::TestGuardDump::test_fluid_stall_dumps_state
                    gauges["switches.buffer_used_max"] = buf
                lb = getattr(node, "lb", None)
                if lb is not None and id(lb) not in seen_lbs:
                    seen_lbs.add(id(lb))
                    for key, v in (("lb.reroutes", getattr(lb, "reroutes", None)),
                                   ("lb.probes", getattr(lb, "probes", None))):
                        if v is not None:
                            # census: a strategy that counts reroutes and probes — tests/obs/test_zero_perturbation.py::TestTraceHooksObserve::test_lb_reroute_callback_fires
                            counters[key] = counters.get(key, 0) + v
            return counters, gauges

        self._collectors.append(read)

    def bind_fct(self, collector) -> None:
        """Aggregate an :class:`~repro.metrics.fct.FctCollector`'s
        completion count (live progress and end-of-run snapshot share it)."""

        def read():
            return {"flows.completed": collector.completed()}, {}

        self._collectors.append(read)

    # -- export -------------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """One JSON-able dict: pull collectors + push counters."""
        counters: Dict[str, float] = {
            name: c.value for name, c in self._counters.items()
        }
        gauges: Dict[str, float] = {}
        for read in self._collectors:
            cs, gs = read()
            for k, v in cs.items():
                counters[k] = counters.get(k, 0) + v
            for k, v in gs.items():
                if k not in gauges or v > gauges[k]:
                    gauges[k] = v
        return {
            "counters": counters,
            "gauges": gauges,
            "meta": {"runs": 1},
        }

    #: Alias — the exportable form named in the issue/design docs.
    to_dict = snapshot


def merge_snapshots(snapshots: Iterable[Optional[dict]]) -> dict:
    """Reduce worker snapshots into one: counters sum, gauges max,
    ``meta.runs`` sums.  ``None`` entries (runs without a registry) are
    skipped."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    runs = 0
    for snap in snapshots:
        # census: an empty snapshot — tests/obs/test_metrics_registry.py::TestMergeSnapshots::test_merge_semantics
        if not snap:
            continue
        runs += snap.get("meta", {}).get("runs", 1)
        for k, v in snap.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v
        for k, v in snap.get("gauges", {}).items():
            if k not in gauges or v > gauges[k]:
                gauges[k] = v
    return {
        "counters": counters,
        "gauges": gauges,
        "meta": {"runs": runs},
    }
