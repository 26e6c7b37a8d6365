"""Per-shard fabric builders (spawn-safe, module-level, plain kwargs).

Each builder calls the serial experiment's own fabric builder — same
:class:`Simulator`, same seed streams, same topology build, same flow
list, by construction — and then launches only the flows this shard
*owns* (:func:`repro.experiments.common.launch_flows`, ``owned=``); the
injected boundary frames supply the remote half of the wire, at the
serial timestamps.

Builders are addressed as ``"repro.shard.builders:build_..."`` in the
plain-data build specs the process runtime ships to spawn workers.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.experiments.common import (
    build_microbench_fabric,
    launch_flows,
    portstats_fingerprint,
    series_samples,
)
from repro.metrics.monitors import pause_frame_count, pfc_frame_totals
from repro.shard.runtime import ShardFabric
from repro.units import us


class ShardBomb(RuntimeError):
    """The deterministic crash used by the killed-shard tests."""


def _raise_bomb(arg) -> None:
    raise ShardBomb(f"scheduled shard crash at {arg} ps")


def _shard_fabric(
    sim,
    topo,
    owned: frozenset,
    scenario: Callable[[], dict],
    trace: bool,
    crash_at_us: Optional[float],
    **completion,
) -> ShardFabric:
    """What both builders do once their owned traffic is launched: attach
    the tracer, arm the crash bomb, and add to ``scenario()`` — the
    scenario's own payload keys — the counters every shard ships home for
    its owned nodes (PortStats rows, PFC ledger, pause count, events)."""
    tracer = None
    if trace:
        from repro.obs import EventTracer

        tracer = EventTracer()
        tracer.attach(topo)
    if crash_at_us is not None:
        sim.schedule_at(us(crash_at_us), _raise_bomb, us(crash_at_us))
    switches = [sw for sw in topo.switches if sw.name in owned]
    nodes = [h for h in topo.hosts if h.name in owned] + switches

    def collect() -> dict:
        payload = scenario()
        payload["portstats"] = portstats_fingerprint(topo, nodes)
        payload["pfc"] = pfc_frame_totals(nodes)
        payload["pause_frames"] = pause_frame_count(switches)
        payload["events_dispatched"] = sim.events_dispatched
        if tracer is not None:
            payload["trace_events"] = [ev.to_dict() for ev in tracer.events]
            payload["trace_dropped"] = tracer.dropped
        return payload

    return ShardFabric(sim, topo, collect, tracer=tracer, **completion)


def _owned(owner: Dict[str, int], shard_id: int) -> frozenset:
    return frozenset(name for name, sid in owner.items() if sid == shard_id)


def build_microbench_shard(
    shard_id: int,
    owner: Dict[str, int],
    n_shards: int,
    cc: str = "fncc",
    trace: bool = False,
    crash_at_us: Optional[float] = None,
    crash_shard: int = 0,
    **kwargs,
) -> ShardFabric:
    """One shard of :func:`repro.experiments.common.run_microbench` — the
    same :func:`build_microbench_fabric` (same keywords), ownership-gated
    launch and samplers."""
    owned = _owned(owner, shard_id)
    cell = build_microbench_fabric(cc, **kwargs)
    cell.launch(owned)

    def series() -> dict:
        # Plain (times, values) pairs: payloads cross pipes and are compared
        # by value.
        r = cell.result()
        return {
            "queue": r.queue and series_samples(r.queue),
            "utilization": r.utilization and series_samples(r.utilization),
            "rates": {fid: series_samples(s) for fid, s in r.rates.items()},
        }

    return _shard_fabric(
        cell.fabric.sim,
        cell.fabric.topo,
        owned,
        series,
        trace,
        crash_at_us if shard_id == crash_shard else None,
    )


def build_fct_shard(
    shard_id: int,
    owner: Dict[str, int],
    n_shards: int,
    cc: str = "fncc",
    workload: str = "websearch",
    trace: bool = False,
    crash_at_us: Optional[float] = None,
    crash_shard: int = 0,
    **kwargs,
) -> ShardFabric:
    """One shard of :func:`~repro.experiments.fct_experiment.run_fct_experiment`
    (the §5.5 fat-tree cell) — shared fabric builder, ownership-gated
    launch, completion counted where each flow's receiver lives."""
    from repro.experiments.fct_experiment import build_fct_fabric

    owned = _owned(owner, shard_id)
    fab = build_fct_fabric(cc, workload=workload, **kwargs)
    launch_flows(fab.topo, fab.flows, fab.env, owned)
    collector = fab.collector

    def records() -> dict:
        return {
            "records": [
                (r.flow.flow_id, r.fct_ps, r.flow.size_bytes, r.slowdown)
                for r in collector.records
            ],
            "bins": list(fab.bins),
            "n_flows": len(fab.flows),
        }

    return _shard_fabric(
        fab.sim,
        fab.topo,
        owned,
        records,
        trace,
        crash_at_us if shard_id == crash_shard else None,
        completed=collector.completed,
        target=len(fab.flows),
    )
