"""Sharded experiment drivers: partition, run, merge (DESIGN.md §11).

The drivers own the three steps the runtime deliberately does not:

1. **Plan** — derive the partition (dumbbell chain split / fat-tree pod
   split) from a throwaway topology; only the plain ownership map
   travels further.  The process-backed group starts its workers first
   and plans while they import.
2. **Run** — spin up :class:`InProcessShards` or :class:`ProcessShards`
   over the matching builder and drive :func:`run_sharded`.
3. **Merge** — fold the per-shard plain-data payloads into one result
   comparable with the serial experiment: concatenated port stats, a
   summed PFC ledger, unioned FCT records, merged obs snapshots, one
   Chrome trace with a pid per shard.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.metrics.series import TimeSeries
from repro.shard.partition import PartitionPlan, dumbbell_plan, fattree_plan
from repro.shard.runtime import (
    InProcessShards,
    ProcessShards,
    build_engine,
    run_sharded,
)
from repro.sim.engine import Simulator
from repro.topo.base import LinkSpec
from repro.topo.fattree import fattree_wiring
from repro.units import MS, us


def _merge_portstats(payloads: Dict[int, dict]) -> List[tuple]:
    rows: List[tuple] = []
    for sid in sorted(payloads):
        rows.extend(tuple(r) for r in payloads[sid]["portstats"])
    return sorted(rows)


def _merge_pfc(payloads: Dict[int, dict]) -> Dict[str, int]:
    totals = {"pause_sent": 0, "pause_received": 0, "resume_sent": 0, "resume_received": 0}
    for payload in payloads.values():
        for key in totals:
            totals[key] += payload["pfc"][key]
    return totals


def _rebuild_series(data: Optional[tuple], name: str) -> Optional[TimeSeries]:
    if data is None:
        return None
    ts = TimeSeries(name)
    times, values = data
    for t, v in zip(times, values):
        ts.append(t, v)
    return ts


class _TracerShim:
    """Just enough of :class:`~repro.obs.trace.EventTracer` for
    :func:`~repro.obs.export.export_chrome_trace`: an ``events`` list
    rebuilt from the plain dicts a process-backed shard shipped home."""

    __slots__ = ("events", "dropped")

    def __init__(self, event_dicts: List[dict], dropped: int = 0) -> None:
        self.dropped = dropped
        from repro.obs.trace import TraceEvent

        self.events = [
            TraceEvent(
                d["ts_ps"],
                d["cat"],
                d["name"],
                ph=d.get("ph", "i"),
                dur_ps=d.get("dur_ps", 0),
                args=d.get("args"),
            )
            for d in event_dicts
        ]


def export_shard_trace(path: str, payloads: Dict[int, dict]) -> Optional[str]:
    """One Chrome trace for the whole sharded run — pid = shard id, so
    the boundary exchanges line up across process rows in the viewer.
    Returns ``path``, or None when no shard traced."""
    from repro.obs.export import export_chrome_trace

    cells = [
        (
            f"shard{sid}",
            _TracerShim(
                payloads[sid]["trace_events"],
                payloads[sid].get("trace_dropped", 0),
            ),
        )
        for sid in sorted(payloads)
        if "trace_events" in payloads[sid]
    ]
    if not cells:
        return None
    export_chrome_trace(path, cells)
    return path


class ShardedRunResult:
    """Merged result of a sharded run, shaped for serial comparison.

    ``events_dispatched`` is reported per shard and deliberately left
    out of every identity witness: injection bounce events and the
    remote copies' monitor ticks make the totals legitimately differ
    from the serial engine's while all physical counters stay
    byte-identical.
    """

    def __init__(self, plan: PartitionPlan, payloads: Dict[int, dict], end_ps: int) -> None:
        self.plan = plan
        self.payloads = payloads
        self.end_ps = end_ps
        self.portstats = _merge_portstats(payloads)
        self.pfc = _merge_pfc(payloads)
        self.pause_frames = sum(p["pause_frames"] for p in payloads.values())
        self.events_by_shard = {
            sid: p["events_dispatched"] for sid, p in payloads.items()
        }
        self.boundary = {sid: p["boundary"] for sid, p in payloads.items()}

    def portstats_fingerprint(self) -> tuple:
        return tuple(self.portstats)


class ShardedMicrobenchResult(ShardedRunResult):
    """Sharded counterpart of ``MicrobenchSummary``: the plotted series
    live on whichever shard owned the monitored objects; merging is a
    union (each series exists exactly once)."""

    def __init__(self, plan, payloads, end_ps) -> None:
        super().__init__(plan, payloads, end_ps)
        self.queue = None
        self.utilization = None
        self.rates: Dict[int, TimeSeries] = {}
        for sid in sorted(payloads):
            p = payloads[sid]
            if p["queue"] is not None:
                self.queue = _rebuild_series(p["queue"], "qlen")
            if p["utilization"] is not None:
                self.utilization = _rebuild_series(p["utilization"], "util")
            for fid, data in p["rates"].items():
                self.rates[int(fid)] = _rebuild_series(data, f"rate:{fid}")

    def series_fingerprint(self) -> tuple:
        """The serial ``MicrobenchSummary.fingerprint()`` minus
        ``events_dispatched`` (see class docstring)."""
        return (
            self.pause_frames,
            tuple(self.queue.times),
            tuple(self.queue.values),
            tuple(
                (fid, tuple(s.times), tuple(s.values))
                for fid, s in sorted(self.rates.items())
            ),
            tuple(self.utilization.times),
            tuple(self.utilization.values),
        )


class ShardedFctResult(ShardedRunResult):
    """Sharded counterpart of ``FctResult``: each flow's record was
    written exactly once, on the shard owning its receiver."""

    def __init__(self, plan, payloads, end_ps) -> None:
        super().__init__(plan, payloads, end_ps)
        self.records: List[tuple] = sorted(
            rec for p in payloads.values() for rec in p["records"]
        )
        self.n_flows = next(iter(payloads.values()))["n_flows"]
        self.bins = list(next(iter(payloads.values()))["bins"])

    @property
    def completed(self) -> int:
        return len(self.records)

    def fct_fingerprint(self) -> tuple:
        """Identical to ``FctResult.fct_fingerprint()``: sorted
        ``(flow_id, fct_ps)``."""
        return tuple((fid, fct_ps) for fid, fct_ps, _size, _sd in self.records)

    def slowdown_table(self):
        from repro.metrics.fct import SlowdownTable

        table = SlowdownTable(self.bins)
        for _fid, _fct, size, slowdown in self.records:
            table.add(size, slowdown)
        return table


def _make_group(
    build: dict,
    n_shards: int,
    planner: Callable[[], PartitionPlan],
    process: bool,
    dump_dir,
):
    if process:
        return ProcessShards(build, (n_shards, planner), dump_dir=dump_dir)
    plan_dict = planner().to_dict()
    return InProcessShards(
        [build_engine(build, plan_dict, sid) for sid in range(n_shards)]
    )


def run_sharded_microbench(
    cc: str,
    n_shards: int = 2,
    process: bool = False,
    duration_us: float = 700.0,
    trace_path: Optional[str] = None,
    dump_dir: Optional[str] = None,
    window_ps: Optional[int] = None,
    **kwargs,
) -> ShardedMicrobenchResult:
    """Sharded :func:`~repro.experiments.common.run_microbench` over the
    dumbbell chain, split into ``n_shards`` contiguous switch runs."""

    def planner() -> PartitionPlan:
        from repro.experiments.common import run_microbench

        # Plan off a throwaway serial build (cheap: nothing runs).  The
        # builder-only knobs (crash bombs) don't exist on the serial entry
        # point.
        probe_kwargs = {
            k: v
            for k, v in kwargs.items()
            if k not in ("crash_at_us", "crash_shard")
        }
        probe = run_microbench(cc, duration_us=0.0, **probe_kwargs)
        return dumbbell_plan(probe.topo, n_shards)

    build = {
        "fn": "repro.shard.builders:build_microbench_shard",
        "kwargs": dict(kwargs, cc=cc, trace=trace_path is not None),
    }
    group = _make_group(build, n_shards, planner, process, dump_dir)
    try:
        plan = group.plan
        end = run_sharded(group, plan, until=us(duration_us), window_ps=window_ps)
        payloads = group.collect_all()
    finally:
        group.stop()
    result = ShardedMicrobenchResult(plan, payloads, end)
    if trace_path is not None:
        export_shard_trace(trace_path, payloads)
    return result


def run_sharded_fct(
    cc: str,
    shards: int = 2,
    process: bool = False,
    workload: str = "websearch",
    max_horizon_ms: float = 50.0,
    trace_path: Optional[str] = None,
    dump_dir: Optional[str] = None,
    k: int = 4,
    **kwargs,
) -> ShardedFctResult:
    """Sharded §5.5 FCT experiment: the k-ary fat-tree is split at the
    agg↔core boundary into ``shards`` pod groups (cores ride shard 0).

    Stop rule matches the serial driver exactly: completion is checked
    only at ``MS // 2`` chunk boundaries (every horizon stops at the next
    one at the latest), so the final barrier lands on the same timestamp
    serial ``drive_fct`` would have stopped at; the flow count it waits
    for comes from the shards' own builds.
    """

    def planner() -> PartitionPlan:
        # Ownership and the cut set need names, links and propagation
        # delays only: the wiring build_fct_fabric routes, without its
        # routing install, CC environment or flow list.
        link = LinkSpec(prop_delay_ps=us(1.5))
        return fattree_plan(fattree_wiring(Simulator(), k=k, link=link), shards)

    build = {
        "fn": "repro.shard.builders:build_fct_shard",
        "kwargs": dict(
            kwargs, cc=cc, workload=workload, k=k, trace=trace_path is not None
        ),
    }
    group = _make_group(build, shards, planner, process, dump_dir)
    try:
        plan = group.plan
        end = run_sharded(
            group, plan, chunk_ps=MS // 2, max_horizon_ps=round(max_horizon_ms * MS)
        )
        payloads = group.collect_all()
    finally:
        group.stop()
    result = ShardedFctResult(plan, payloads, end)
    if trace_path is not None:
        export_shard_trace(trace_path, payloads)
    return result
