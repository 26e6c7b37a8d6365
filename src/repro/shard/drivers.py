"""The sharded FCT driver: partition, run, merge (DESIGN.md §11).

The driver owns the three steps the runtime deliberately does not:

1. **Plan** — derive the fat-tree pod split from a throwaway wiring;
   only the plain ownership map travels further.  The process-backed
   group starts its workers first and plans while they start (a forked
   worker starts with the coordinator's imports; only a spawned one
   imports while it waits).
2. **Run** — spin up :class:`InProcessShards` or :class:`ProcessShards`
   over :func:`~repro.shard.builders.build_fct_shard` and drive
   :func:`run_sharded`.
3. **Merge** — fold the per-shard plain-data payloads into one result
   comparable with the serial experiment: concatenated port stats, a
   summed PFC ledger, unioned FCT records, merged obs snapshots, one
   Chrome trace with a pid per shard.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.port import PFC_COUNTERS
from repro.shard.partition import PartitionPlan, fattree_plan
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


class ShardedFctResult:
    """Merged result of a sharded run, shaped for serial comparison with
    ``FctResult``: concatenated port stats, a summed PFC ledger, and each
    flow's record, written exactly once on the shard owning its receiver.

    ``events_dispatched`` is reported per shard and deliberately left
    out of every identity witness: injection bounce events make the
    totals legitimately differ from the serial engine's while all
    physical counters stay byte-identical.
    """

    def __init__(self, plan: PartitionPlan, payloads: Dict[int, dict], end_ps: int) -> None:
        self.plan = plan
        self.payloads = payloads
        self.end_ps = end_ps
        self.portstats: List[tuple] = sorted(
            row for p in payloads.values() for row in p["portstats"]
        )
        self.pfc = {
            name: sum(p["pfc"][name] for p in payloads.values()) for name in PFC_COUNTERS
        }
        self.events_by_shard = {
            sid: p["events_dispatched"] for sid, p in payloads.items()
        }
        self.boundary = {sid: p["boundary"] for sid, p in payloads.items()}
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
    for comes from the shards' own builds.  The group is always stopped;
    a crashed shard's flight dump lands in ``dump_dir`` as
    ``shard{i}-flight.json``.
    """

    def planner() -> PartitionPlan:
        # Ownership and the cut set need names, links and propagation
        # delays only: the wiring build_fct_fabric routes, without its
        # routing install, CC environment or flow list.
        link = LinkSpec(prop_delay_ps=us(1.5))
        return fattree_plan(fattree_wiring(Simulator(), k=k, link=link), shards)

    build = {
        "fn": "repro.shard.builders:build_fct_shard",
        "kwargs": dict(kwargs, cc=cc, workload=workload, k=k, trace=trace_path is not None),
    }
    if process:
        group = ProcessShards(build, (shards, planner), dump_dir=dump_dir)
    else:
        plan_dict = planner().to_dict()
        group = InProcessShards(
            [build_engine(build, plan_dict, sid) for sid in range(shards)],
            dump_dir=dump_dir,
        )
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
