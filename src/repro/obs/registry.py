"""The run-owned metrics registry (DESIGN.md §8).

One :class:`MetricsRegistry` per run, never global: experiments construct
it, bind the run's simulator/fabric, and ship the :meth:`snapshot` dict
with the run's summary.  Aggregation is **pull-based** — the registry
never wraps anything on the hot path; at snapshot time it reads the
counters the fabric already maintains (:class:`repro.net.port.PortStats`,
engine dispatch/heap counters, LB reroute tallies, hybrid phase
stats).  That is what makes registry-level observability byte-identical
and train-safe by construction: enabling it changes no event, no RNG
draw, and no wire timestamp (pinned by ``tests/obs``).

Push-style instruments (:class:`Counter`, :class:`Gauge`,
:class:`Histogram`) exist for *cold* paths — phase transitions, flight
dumps, per-flow completions — and for subsystems that want named metrics
without growing their own ad-hoc dicts.

Snapshots are plain JSON-able dicts so they pickle back from ``exec``
workers, forked or spawned; :func:`merge_snapshots` is the reduce step (counters sum, gauges
max, histograms add bucket-wise).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Sequence


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value: either a callback read at snapshot time or a
    value pushed with :meth:`set`.  Merged across workers by ``max``."""

    __slots__ = ("name", "fn", "_value")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self.fn = fn
        self._value = 0

    def set(self, value) -> None:
        self._value = value

    def read(self):
        return self.fn() if self.fn is not None else self._value


class Histogram:
    """Fixed-bound bucket counts (``len(bounds) + 1`` buckets; the last is
    the overflow).  Bounds are upper-inclusive: a sample lands in the first
    bucket whose bound is >= the value."""

    __slots__ = ("name", "bounds", "counts")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        self.name = name
        self.bounds = [float(b) for b in bounds]
        if self.bounds != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        # First bucket whose bound >= value == bisect_left on the bounds.
        self.counts[bisect_left(self.bounds, float(value))] += 1

    def total(self) -> int:
        return sum(self.counts)

    def to_dict(self) -> Dict[str, list]:
        return {"bounds": list(self.bounds), "counts": list(self.counts)}


class MetricsRegistry:
    """Named instruments plus pull collectors, snapshotted to one dict.

    Ownership rule: a registry belongs to exactly one run (one simulator,
    one fabric).  Binding a second simulator raises — merged views are the
    job of :func:`merge_snapshots`, not of a shared registry (a global
    registry would double-count rebuilt fabrics and break worker merges).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: snapshot-time readers; each returns ({counter: n}, {gauge: v}).
        self._collectors: List[Callable[[], tuple]] = []
        self._sim = None

    # -- instruments (push, cold paths only) -------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name, fn)
        elif fn is not None:
            g.fn = fn
        return g

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, bounds)
        return h

    # -- pull collectors ----------------------------------------------------
    def reset_run_bindings(self) -> None:
        """Drop the pull collectors and simulator binding, keeping push
        instruments.  For re-attaching the bundle to a *rebuilt* fabric of
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
        """Aggregate every port's :class:`PortStats`, switch buffer state
        and any LB strategy counters of a topology-like object."""

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
            nodes = list(getattr(topo, "hosts", ())) + list(
                getattr(topo, "switches", ())
            )
            seen_lbs = set()
            for node in nodes:
                for port in node.ports:
                    s = port.stats
                    counters["ports.tx_packets"] += s.tx_packets
                    counters["ports.tx_bytes"] += s.tx_bytes
                    counters["ports.rx_packets"] += s.rx_packets
                    counters["ports.rx_bytes"] += s.rx_bytes
                    counters["ports.drops"] += s.drops
                    counters["ports.ecn_marked"] += s.ecn_marked
                    counters["ports.train_frames"] += port.train_frames
                    counters["pfc.pause_sent"] += s.pause_sent
                    counters["pfc.pause_received"] += s.pause_received
                    counters["pfc.resume_sent"] += s.resume_sent
                    counters["pfc.resume_received"] += s.resume_received
                    if s.max_qlen > gauges["ports.max_qlen"]:
                        gauges["ports.max_qlen"] = s.max_qlen
                buf = getattr(node, "buffer_used", None)
                if buf is not None and buf > gauges["switches.buffer_used_max"]:
                    gauges["switches.buffer_used_max"] = buf
                lb = getattr(node, "lb", None)
                if lb is not None and id(lb) not in seen_lbs:
                    seen_lbs.add(id(lb))
                    for attr, key in (("reroutes", "lb.reroutes"), ("probes", "lb.probes")):
                        v = getattr(lb, attr, None)
                        if v is not None:
                            counters[key] = counters.get(key, 0) + v
            return counters, gauges

        self._collectors.append(read)

    def bind_fct(self, collector) -> None:
        """Aggregate an :class:`~repro.metrics.fct.FctCollector`'s
        completion count (live progress and end-of-run snapshot share it)."""

        def read():
            return {"flows.completed": collector.completed()}, {}

        self._collectors.append(read)

    def bind_collector(self, read: Callable[[], tuple]) -> None:
        """Register an arbitrary pull collector: ``read()`` must return
        ``({counter_name: n}, {gauge_name: v})``.  Counters from several
        collectors sharing a key sum at snapshot time; gauges take the
        max.  This is how subsystems outside ``obs`` (fault injectors,
        PFC watchdogs, invariant auditors) join the snapshot without the
        registry importing them."""
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
        """One JSON-able dict: pull collectors + push instruments."""
        counters: Dict[str, float] = {
            name: c.value for name, c in self._counters.items()
        }
        gauges: Dict[str, float] = {
            name: g.read() for name, g in self._gauges.items()
        }
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
            "histograms": {
                name: h.to_dict() for name, h in self._histograms.items()
            },
            "meta": {"runs": 1},
        }

    #: Alias — the exportable form named in the issue/design docs.
    to_dict = snapshot


def merge_snapshots(snapshots: Iterable[Optional[dict]]) -> dict:
    """Reduce worker snapshots into one: counters sum, gauges max,
    histograms add bucket-wise (bounds must match), ``meta.runs`` sums.
    ``None`` entries (runs without a registry) are skipped."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, dict] = {}
    runs = 0
    for snap in snapshots:
        if not snap:
            continue
        runs += snap.get("meta", {}).get("runs", 1)
        for k, v in snap.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v
        for k, v in snap.get("gauges", {}).items():
            if k not in gauges or v > gauges[k]:
                gauges[k] = v
        for name, h in snap.get("histograms", {}).items():
            have = histograms.get(name)
            if have is None:
                histograms[name] = {
                    "bounds": list(h["bounds"]),
                    "counts": list(h["counts"]),
                }
            else:
                if have["bounds"] != list(h["bounds"]):
                    raise ValueError(
                        f"histogram {name!r}: bucket bounds differ across workers"
                    )
                have["counts"] = [a + b for a, b in zip(have["counts"], h["counts"])]
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "meta": {"runs": runs},
    }
