"""Sharded experiment drivers: partition, run, merge (DESIGN.md §11).

The drivers own the three steps the runtime deliberately does not:

1. **Plan** — derive the partition (dumbbell chain split / fat-tree pod
   split) from a throwaway topology; only the plain ownership map
   travels further.  The process-backed group starts its workers first
   and plans while they start (a forked worker starts with the
   coordinator's imports; only a spawned one imports while it waits).
2. **Run** — spin up :class:`InProcessShards` or :class:`ProcessShards`
   over the matching builder and drive :func:`run_sharded`.
3. **Merge** — fold the per-shard plain-data payloads into one result
   comparable with the serial experiment: concatenated port stats, a
   summed PFC ledger, unioned FCT records, merged obs snapshots, one
   Chrome trace with a pid per shard.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.experiments.common import MicrobenchResult, build_microbench_fabric
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


def _merge_pfc(payloads: Dict[int, dict]) -> Dict[str, int]:
    totals = {"pause_sent": 0, "pause_received": 0, "resume_sent": 0, "resume_received": 0}
    for payload in payloads.values():
        for key in totals:
            totals[key] += payload["pfc"][key]
    return totals


def _rebuild_series(data: tuple, name: str) -> TimeSeries:
    ts = TimeSeries(name)
    ts.times, ts.values = map(list, data)
    return ts


class _TracerShim:
    """Just enough of :class:`~repro.obs.trace.EventTracer` for
    :func:`~repro.obs.export.export_chrome_trace`: an ``events`` list
    rebuilt from the plain dicts a process-backed shard shipped home."""

    __slots__ = ("events", "dropped")

    def __init__(self, event_dicts: List[dict], dropped: int = 0) -> None:
        self.dropped = dropped
        from repro.obs.trace import TraceEvent

        # to_dict() keys are TraceEvent's own keywords.
        self.events = [TraceEvent(**d) for d in event_dicts]


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
        self.portstats: List[tuple] = sorted(
            row for p in payloads.values() for row in p["portstats"]
        )
        self.pfc = _merge_pfc(payloads)
        self.pause_frames = sum(p["pause_frames"] for p in payloads.values())
        self.events_by_shard = {
            sid: p["events_dispatched"] for sid, p in payloads.items()
        }
        self.boundary = {sid: p["boundary"] for sid, p in payloads.items()}

    def portstats_fingerprint(self) -> tuple:
        return tuple(self.portstats)


class ShardedMicrobenchResult(ShardedRunResult):
    """Sharded counterpart of ``MicrobenchResult``: the plotted series
    live on whichever shard owned the monitored objects; merging is a
    union (each series exists exactly once)."""

    def __init__(self, plan, payloads, end_ps) -> None:
        super().__init__(plan, payloads, end_ps)
        self.queue: Optional[TimeSeries] = None
        self.utilization: Optional[TimeSeries] = None
        self.rates: Dict[int, TimeSeries] = {}
        for sid in sorted(payloads):
            p = payloads[sid]
            if p["queue"] is not None:
                self.queue = _rebuild_series(p["queue"], "qlen")
                self.utilization = _rebuild_series(p["utilization"], "util")
            for fid, data in p["rates"].items():
                self.rates[fid] = _rebuild_series(data, f"rate:{fid}")

    def series_fingerprint(self) -> tuple:
        """The serial :meth:`MicrobenchResult.series_fingerprint`, read off
        the merged series."""
        return MicrobenchResult.series_fingerprint(self)


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
        """Identical to ``FctCollector.fingerprint()``: sorted
        ``(flow_id, fct_ps)``."""
        return tuple((fid, fct_ps) for fid, fct_ps, _size, _sd in self.records)

    def slowdown_table(self):
        from repro.metrics.fct import SlowdownTable

        table = SlowdownTable(self.bins)
        for _fid, _fct, size, slowdown in self.records:
            table.add(size, slowdown)
        return table


def _run_group(
    build_fn: str,
    build_kwargs: dict,
    n_shards: int,
    planner: Callable[[], PartitionPlan],
    process: bool,
    dump_dir: Optional[str],
    trace_path: Optional[str],
    result_cls,
    **run_kwargs,
):
    """The lifecycle both drivers share: start the group, drive
    :func:`run_sharded` with ``run_kwargs``, collect, always stop, merge
    into ``result_cls``, export the trace when one was asked for."""
    build = {
        "fn": f"repro.shard.builders:{build_fn}",
        "kwargs": dict(build_kwargs, trace=trace_path is not None),
    }
    if process:
        group = ProcessShards(build, (n_shards, planner), dump_dir=dump_dir)
    else:
        plan_dict = planner().to_dict()
        group = InProcessShards(
            [build_engine(build, plan_dict, sid) for sid in range(n_shards)]
        )
    try:
        plan = group.plan
        end = run_sharded(group, plan, **run_kwargs)
        payloads = group.collect_all()
    finally:
        group.stop()
    result = result_cls(plan, payloads, end)
    if trace_path is not None:
        export_shard_trace(trace_path, payloads)
    return result


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
    """Sharded :func:`~repro.experiments.common.run_microbench` (same
    keywords) over the dumbbell chain, split into ``n_shards`` contiguous
    switch runs."""

    def planner() -> PartitionPlan:
        # Plan off a throwaway build of the same cell (cheap: nothing is
        # launched); the crash bombs are the builder's, not the cell's.
        cell_kwargs = {
            k: v for k, v in kwargs.items() if k not in ("crash_at_us", "crash_shard")
        }
        probe = build_microbench_fabric(cc, **cell_kwargs)
        return dumbbell_plan(probe.fabric.topo, n_shards)

    return _run_group(
        "build_microbench_shard",
        dict(kwargs, cc=cc),
        n_shards,
        planner,
        process,
        dump_dir,
        trace_path,
        ShardedMicrobenchResult,
        until=us(duration_us),
        window_ps=window_ps,
    )


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

    return _run_group(
        "build_fct_shard",
        dict(kwargs, cc=cc, workload=workload, k=k),
        shards,
        planner,
        process,
        dump_dir,
        trace_path,
        ShardedFctResult,
        chunk_ps=MS // 2,
        max_horizon_ps=round(max_horizon_ms * MS),
    )
