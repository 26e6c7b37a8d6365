"""The per-shard fabric builder (module-level, plain kwargs: what a shard
worker can resolve by name whether it was forked or spawned).

It calls the serial experiment's own fabric builder — same
:class:`Simulator`, same seed streams, same topology build, same flow
list, by construction — and then launches only the flows this shard
*owns* (:func:`repro.experiments.common.launch_flows`, ``owned=``); the
injected boundary frames supply the remote half of the wire, at the
serial timestamps.

It is addressed as ``"repro.shard.builders:build_fct_shard"`` in the
plain-data build specs the process runtime ships to its workers.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import launch_flows, portstats_fingerprint
from repro.experiments.fct_experiment import build_fct_fabric
from repro.metrics.monitors import pfc_frame_totals
from repro.shard.runtime import ShardFabric
from repro.units import us


class ShardBomb(RuntimeError):
    """The deterministic crash used by the killed-shard tests."""


def _raise_bomb(arg) -> None:
    raise ShardBomb(f"scheduled shard crash at {arg} ps")


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
    launch, completion counted where each flow's receiver lives.

    ``trace`` attaches an event tracer; ``crash_at_us`` schedules a crash
    on shard ``crash_shard``.  The payload ``collect()`` ships home holds
    the shard's FCT records and the counters of its owned nodes
    (port-counter rows, PFC ledger, events)."""
    owned = frozenset(name for name, sid in owner.items() if sid == shard_id)
    fab = build_fct_fabric(cc, workload=workload, **kwargs)
    sim, topo, collector = fab.sim, fab.topo, fab.collector
    launch_flows(topo, fab.flows, fab.env, owned)
    tracer = None
    if trace:
        from repro.obs import EventTracer

        tracer = EventTracer()
        tracer.attach(topo)
    if crash_at_us is not None and shard_id == crash_shard:
        sim.schedule_at(us(crash_at_us), _raise_bomb, us(crash_at_us))
    nodes = [h for h in topo.hosts if h.name in owned] + [
        sw for sw in topo.switches if sw.name in owned
    ]

    def collect() -> dict:
        payload = {
            "records": [
                (r.flow.flow_id, r.fct_ps, r.flow.size_bytes, r.slowdown)
                for r in collector.records
            ],
            "bins": list(fab.bins),
            "n_flows": len(fab.flows),
            "portstats": portstats_fingerprint(topo, nodes),
            "pfc": pfc_frame_totals(nodes),
            "events_dispatched": sim.events_dispatched,
        }
        if tracer is not None:
            payload["trace_events"] = [ev.to_dict() for ev in tracer.events]
            payload["trace_dropped"] = tracer.dropped
        return payload

    return ShardFabric(sim, topo, collect, collector.completed, len(fab.flows), tracer)
