"""The run-owned metrics registry (DESIGN.md §8).

One :class:`MetricsRegistry` per run, never global: experiments construct
it, bind the run's simulator/fabric, and ship the :meth:`snapshot` dict
with the run's summary.  Aggregation is **pull-based** — the registry
never wraps anything on the hot path; at snapshot time it reads the
counters the fabric already maintains (each :class:`repro.net.port.Port`'s,
engine dispatch/heap counters, LB reroute tallies, hybrid phase
stats).  That is what makes registry-level observability byte-identical
and train-safe by construction: enabling it changes no event, no RNG
draw, and no wire timestamp (pinned by ``tests/obs``).

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
    def reset_run_bindings(self) -> None:
        """Drop the pull collectors and simulator binding, keeping the
        counters.  For re-attaching the bundle to a *rebuilt* fabric of
        the same run (hybrid refine rounds rebuild the packet fabric, and
        the discarded one must stop contributing to snapshots or its
        counters double-count) — NOT for sharing a registry across runs;
        cross-run aggregation goes through :func:`merge_snapshots`."""
        self._collectors.clear()
        self._sim = None

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
        and any LB strategy counters of a topology."""

        def read():
            counters = {
                "ports.tx_packets": 0,
                "ports.tx_bytes": 0,
                "ports.rx_packets": 0,
                "ports.rx_bytes": 0,
                "ports.drops": 0,
                "ports.ecn_marked": 0,
                "ports.train_frames": 0,
                "pfc.pause_sent": 0,
                "pfc.pause_received": 0,
                "pfc.resume_sent": 0,
                "pfc.resume_received": 0,
            }
            gauges = {"ports.max_qlen": 0, "switches.buffer_used_max": 0}
            seen_lbs = set()
            for node in topo.nodes():
                for port in node.ports:
                    counters["ports.tx_packets"] += port.tx_packets
                    counters["ports.tx_bytes"] += port.tx_bytes
                    counters["ports.rx_packets"] += port.rx_packets
                    counters["ports.rx_bytes"] += port.rx_bytes
                    counters["ports.drops"] += port.drops
                    counters["ports.ecn_marked"] += port.ecn_marked
                    counters["ports.train_frames"] += port.train_frames
                    counters["pfc.pause_sent"] += port.pause_sent
                    counters["pfc.pause_received"] += port.pause_received
                    counters["pfc.resume_sent"] += port.resume_sent
                    counters["pfc.resume_received"] += port.resume_received
                    if port.max_qlen > gauges["ports.max_qlen"]:
                        gauges["ports.max_qlen"] = port.max_qlen
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

    def observe_hybrid(self, stats: Dict[str, int]) -> None:
        """Fold a hybrid backend's phase-stats dict into the snapshot
        (``hybrid.demoted``, ``hybrid.fluid``, ``hybrid.refine_rounds``,
        epoch-exchange event counts...)."""
        for key, value in stats.items():
            if isinstance(value, (int, float)):
                c = self.counter(f"hybrid.{key}")
                c.value = value

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
