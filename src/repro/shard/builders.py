"""Per-shard fabric builders (spawn-safe, module-level, plain kwargs).

Each builder replays the corresponding serial experiment's construction
**exactly** — same :class:`Simulator`, same seed streams, same topology
build, same flow list — and then launches only the flows this shard
*owns*: a sender QP starts where the source host lives, a receiver
registers where the destination lives.  Because every RNG stream is
name-derived and CC factories are stateless per flow, skipping the other
shards' launches perturbs nothing the owned traffic observes; the
injected boundary frames supply the remote half of the wire, at the
serial timestamps.

Builders are addressed as ``"repro.shard.builders:build_..."`` in the
plain-data build specs the process runtime ships to spawn workers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import build_cc_env
from repro.metrics.monitors import (
    QueueSampler,
    RateSampler,
    UtilizationSampler,
    pause_frame_count,
    pfc_frame_totals,
)
from repro.shard.runtime import ShardFabric
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequenceFactory
from repro.topo.base import LinkSpec
from repro.topo.dumbbell import dumbbell
from repro.traffic.generator import staggered_elephants
from repro.units import KB, MB, us


class ShardBomb(RuntimeError):
    """The deterministic crash used by the killed-shard tests."""


def _raise_bomb(arg) -> None:
    raise ShardBomb(f"scheduled shard crash at {arg} ps")


def portstats_rows(nodes) -> List[tuple]:
    """Every PortStats counter of every port — the per-shard half of the
    byte-identity witness.  ``train_frames`` rides in the last column;
    identity tests mask it on the cut ports only (a boundary hop cannot
    fuse, by construction — everywhere else it must match)."""
    rows = []
    for node in nodes:
        for port in node.ports:
            s = port.stats
            rows.append(
                (
                    node.name,
                    port.index,
                    s.tx_packets,
                    s.tx_bytes,
                    s.rx_packets,
                    s.rx_bytes,
                    s.drops,
                    s.ecn_marked,
                    s.pause_sent,
                    s.pause_received,
                    s.resume_sent,
                    s.resume_received,
                    s.max_qlen,
                    port.train_frames,
                )
            )
    return rows


def _owned(topo, owner: Dict[str, int], shard_id: int):
    hosts = [h for h in topo.hosts if owner[h.name] == shard_id]
    switches = [sw for sw in topo.switches if owner[sw.name] == shard_id]
    return hosts, switches


def _series(ts) -> tuple:
    return (tuple(ts.times), tuple(ts.values))


def build_microbench_shard(
    shard_id: int,
    owner: Dict[str, int],
    n_shards: int,
    cc: str = "fncc",
    link_rate_gbps: float = 100.0,
    n_senders: int = 2,
    n_switches: int = 3,
    flow_size_bytes: int = 20 * MB,
    stagger_us: float = 300.0,
    sample_us: float = 1.0,
    seed: int = 1,
    pfc_xoff: int = 500 * KB,
    monitor_switch: int = 0,
    monitor_port: Optional[int] = None,
    trace: bool = False,
    crash_at_us: Optional[float] = None,
    crash_shard: int = 0,
    **cc_params,
) -> ShardFabric:
    """One shard of :func:`repro.experiments.common.run_microbench` —
    same construction order, ownership-gated launch."""
    sim = Simulator()
    seeds = SeedSequenceFactory(seed)
    env = build_cc_env(cc, link_rate_gbps=link_rate_gbps, pfc_xoff=pfc_xoff, **cc_params)
    link = LinkSpec(rate_gbps=link_rate_gbps, prop_delay_ps=us(1.5))
    topo = dumbbell(
        sim,
        n_senders=n_senders,
        n_switches=n_switches,
        link=link,
        switch_config=env.switch_config,
        seeds=seeds,
        cnp_enabled=env.cnp_enabled,
    )
    env.post_install(topo)

    receiver = topo.hosts[-1]
    flows = staggered_elephants(
        sender_ids=[h.host_id for h in topo.hosts[:n_senders]],
        receiver_id=receiver.host_id,
        size_bytes=flow_size_bytes,
        stagger_ps=us(stagger_us),
    )
    hosts = topo.hosts
    for flow in flows:
        if owner[hosts[flow.dst].name] == shard_id:
            hosts[flow.dst].register_receiver(flow)
    qps = {}
    for flow in flows:
        src_host = hosts[flow.src]
        if owner[src_host.name] != shard_id:
            continue
        cc_obj = env.cc_factory(flow, src_host)
        base_rtt = topo.base_rtt_ps(flow.src, flow.dst)
        qps[flow.flow_id] = src_host.start_flow(flow, cc_obj, base_rtt)

    # Monitors mirror the serial run's, attached only where the monitored
    # object is owned (the samplers are Periodic: their ticks land at the
    # serial timestamps regardless of which shard hosts them).
    sw = topo.switches[monitor_switch]
    qmon = umon = None
    rmons = {}
    if owner[sw.name] == shard_id:
        if monitor_port is None:
            nxt = (
                topo.switches[monitor_switch + 1].name
                if monitor_switch + 1 < len(topo.switches)
                else receiver.name
            )
            monitor_port = topo.adj[sw.name][nxt]["ports"][sw.name]
        port = sw.ports[monitor_port]
        qmon = QueueSampler(sim, port, interval_ps=us(sample_us))
        umon = UtilizationSampler(sim, port, interval_ps=us(5 * sample_us))
    rmons = {
        fid: RateSampler(sim, qp, interval_ps=us(sample_us))
        for fid, qp in qps.items()
    }

    tracer = None
    if trace:
        from repro.obs import EventTracer

        tracer = EventTracer()
        tracer.attach(topo)

    if crash_at_us is not None and shard_id == crash_shard:
        sim.schedule_at(us(crash_at_us), _raise_bomb, us(crash_at_us))

    my_hosts, my_switches = _owned(topo, owner, shard_id)

    def collect() -> dict:
        payload = {
            "queue": None if qmon is None else _series(qmon.series),
            "utilization": None if umon is None else _series(umon.series),
            "rates": {fid: _series(mon.series) for fid, mon in rmons.items()},
            "pause_frames": pause_frame_count(my_switches),
            "portstats": portstats_rows(my_hosts + my_switches),
            "pfc": pfc_frame_totals(my_hosts + my_switches),
            "events_dispatched": sim.events_dispatched,
        }
        if tracer is not None:
            payload["trace_events"] = [ev.to_dict() for ev in tracer.events]
            payload["trace_dropped"] = tracer.dropped
        return payload

    return ShardFabric(sim, topo, collect, completed=None, tracer=tracer)


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

    fab = build_fct_fabric(cc, workload=workload, **kwargs)
    topo, env = fab.topo, fab.env
    hosts = topo.hosts
    for flow in fab.flows:
        if owner[hosts[flow.dst].name] == shard_id:
            hosts[flow.dst].register_receiver(flow)
    for flow in fab.flows:
        src_host = hosts[flow.src]
        if owner[src_host.name] != shard_id:
            continue
        cc_obj = env.cc_factory(flow, src_host)
        src_host.start_flow(flow, cc_obj, topo.base_rtt_ps(flow.src, flow.dst))

    tracer = None
    if trace:
        from repro.obs import EventTracer

        tracer = EventTracer()
        tracer.attach(topo)

    if crash_at_us is not None and shard_id == crash_shard:
        fab.sim.schedule_at(us(crash_at_us), _raise_bomb, us(crash_at_us))

    my_hosts, my_switches = _owned(topo, owner, shard_id)
    collector = fab.collector

    def collect() -> dict:
        payload = {
            "records": [
                (r.flow.flow_id, r.fct_ps, r.flow.size_bytes, r.slowdown)
                for r in collector.records
            ],
            "bins": list(fab.bins),
            "n_flows": len(fab.flows),
            "portstats": portstats_rows(my_hosts + my_switches),
            "pfc": pfc_frame_totals(my_hosts + my_switches),
            "pause_frames": pause_frame_count(my_switches),
            "events_dispatched": fab.sim.events_dispatched,
        }
        if tracer is not None:
            payload["trace_events"] = [ev.to_dict() for ev in tracer.events]
            payload["trace_dropped"] = tracer.dropped
        return payload

    return ShardFabric(
        fab.sim,
        topo,
        collect,
        completed=collector.completed,
        tracer=tracer,
        target=len(fab.flows),
    )
