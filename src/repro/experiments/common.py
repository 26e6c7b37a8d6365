"""Shared experiment plumbing: the one shape every cell has (DESIGN.md §5.1).

**fabric** — :func:`build_cc_env` maps an algorithm name to everything the
fabric needs (switch INT mode, ECN marking, CNP generation, the per-flow CC
factory, switch-resident machinery such as RoCC's PI controllers) and
:func:`build_fabric` turns that plus a topology builder into an unlaunched
:class:`Fabric`; :func:`run_microbench` is the whole staggered-elephant
cell of Figs. 1, 3, 9 and 13 in one call.
**launch** — :func:`launch_flows`, whole or one shard's share.
**result** — :class:`~repro.experiments.fct_experiment.FctResult` and
:class:`MicrobenchResult` serve the in-process caller and the pool worker
alike: pickling drops only the live simulator objects.  :func:`sweep`
fans any of it over axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Sequence

from repro.cc import install_rocc, make_cc_factory
from repro.cc.registry import CcFactory
from repro.exec import RunSpec, SweepExecutor
from repro.metrics.fct import FctCollector
from repro.metrics.monitors import (
    QueueSampler,
    RateSampler,
    UtilizationSampler,
    pause_frame_count,
)
from repro.metrics.series import TimeSeries
from repro.net.port import EcnConfig
from repro.net.switch import IntMode, SwitchConfig
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequenceFactory
from repro.topo.base import LinkSpec, Topology
from repro.topo.dumbbell import dumbbell
from repro.traffic.generator import staggered_elephants
from repro.transport.flow import Flow
from repro.transport.sender import TransportConfig
from repro.units import KB, MB, us

#: DCQCN ECN thresholds at 100 Gb/s (HPCC paper's simulation settings);
#: scaled linearly with the link rate.
ECN_KMIN_100G = 100 * KB
ECN_KMAX_100G = 400 * KB
ECN_PMAX = 0.2


class CcEnv:
    """Everything needed to instantiate one CC scheme on a fabric."""

    def __init__(
        self,
        name: str,
        switch_config: SwitchConfig,
        cc_factory: CcFactory,
        cnp_enabled: bool,
        post_install: Optional[Callable[[Topology], None]] = None,
    ) -> None:
        self.name = name
        self.switch_config = switch_config
        self.cc_factory = cc_factory
        self.cnp_enabled = cnp_enabled
        self.post_install = post_install or (lambda topo: None)


def build_cc_env(
    cc: str,
    link_rate_gbps: float = 100.0,
    pfc_xoff: int = 500 * KB,
    pfc_enabled: bool = True,
    buffer_bytes: int = 32 * MB,
    **cc_params,
) -> CcEnv:
    """Algorithm name -> fabric + endpoint configuration."""
    name = cc.lower()
    int_mode = IntMode.NONE
    ecn: Optional[EcnConfig] = None
    cnp = False
    post: Optional[Callable[[Topology], None]] = None

    if name == "hpcc":
        int_mode = IntMode.HPCC
    elif name == "fncc":
        int_mode = IntMode.FNCC
    elif name == "dcqcn":
        scale = link_rate_gbps / 100.0
        ecn = EcnConfig(
            kmin=round(ECN_KMIN_100G * scale),
            kmax=round(ECN_KMAX_100G * scale),
            pmax=ECN_PMAX,
        )
        cnp = True
    elif name == "rocc":

        def post(topo: Topology) -> None:
            install_rocc(topo.switches)

    elif name in ("timely", "swift"):
        pass
    else:
        raise ValueError(f"unknown CC scheme {cc!r}")

    switch_config = SwitchConfig(
        buffer_bytes=buffer_bytes,
        pfc_enabled=pfc_enabled,
        pfc_xoff=pfc_xoff,
        int_mode=int_mode,
        ecn=ecn,
    )
    return CcEnv(name, switch_config, make_cc_factory(name, **cc_params), cnp, post)


class Fabric(NamedTuple):
    """One cell, built, routed and CC-installed, with nothing launched.

    ``flows`` and ``bins`` are the cell's workload and FCT size bins when
    its builder draws them (:func:`~repro.experiments.fct_experiment.build_fct_fabric`,
    :func:`~repro.experiments.lbmatrix.build_matrix_cell`); a cell that
    makes its own flows leaves them empty."""

    sim: Simulator
    seeds: SeedSequenceFactory
    env: CcEnv
    topo: Topology
    collector: FctCollector
    flows: Sequence[Flow] = ()
    bins: Sequence[int] = ()


def build_fabric(
    cc: str,
    topo_builder: Callable[..., Topology],
    topo_kw: Mapping[str, object],
    *,
    seed: int = 1,
    link_rate_gbps: float = 100.0,
    switch_config: Optional[SwitchConfig] = None,
    transport_config: Optional[TransportConfig] = None,
    lb=None,
    **cc_params,
) -> Fabric:
    """The preamble of every cell: simulator, seed factory, CC environment,
    ``topo_builder(sim, **topo_kw)`` on 1.5 us links, ``env.post_install``,
    an FCT collector.  Deterministic in ``seed`` (every RNG stream is
    name-derived, so equal arguments give byte-identical routing).

    ``switch_config`` replaces the one :func:`build_cc_env` derives;
    ``transport_config`` and ``lb`` (a strategy name or
    :class:`repro.lb.LbConfig`) reach the builder only when given, so a
    builder without the keyword keeps working.  ``cc_params`` go to
    :func:`build_cc_env`.
    """
    sim = Simulator()
    seeds = SeedSequenceFactory(seed)
    env = build_cc_env(cc, link_rate_gbps=link_rate_gbps, **cc_params)
    optional = {"transport_config": transport_config, "lb": lb}
    topo = topo_builder(
        sim,
        link=LinkSpec(rate_gbps=link_rate_gbps, prop_delay_ps=us(1.5)),
        switch_config=env.switch_config if switch_config is None else switch_config,
        seeds=seeds,
        cnp_enabled=env.cnp_enabled,
        **topo_kw,
        **{k: v for k, v in optional.items() if v is not None},
    )
    env.post_install(topo)
    return Fabric(sim, seeds, env, topo, FctCollector(topo))


def launch_flows(
    topo: Topology, flows: Sequence[Flow], env: CcEnv, owned=None
) -> Dict[int, object]:
    """Register receivers and schedule senders; returns flow_id -> SenderQP.

    ``owned`` (a set of node names: one shard's share of the fabric)
    launches only the endpoints living there — a sender QP starts where
    the source host lives, a receiver registers where the destination
    lives.  CC factories are stateless per flow and every RNG stream is
    name-derived, so the skipped launches perturb nothing the owned
    traffic observes."""
    hosts = topo.hosts
    qps: Dict[int, object] = {}
    for flow in flows:
        if owned is None or hosts[flow.dst].name in owned:
            hosts[flow.dst].register_receiver(flow)
    for flow in flows:
        src_host = hosts[flow.src]
        if owned is None or src_host.name in owned:
            cc = env.cc_factory(flow, src_host)
            base_rtt = topo.base_rtt_ps(flow.src, flow.dst)
            qps[flow.flow_id] = src_host.start_flow(flow, cc, base_rtt)
    return qps


def portstats_fingerprint(topo: Topology, nodes=None) -> tuple:
    """Every port counter of every node (or of ``nodes``, a shard's share)
    as one sorted, hashable tuple — the port-counter half of the
    zero-perturbation witness (DESIGN.md §10): two runs are byte-identical
    at the wire iff their FCT fingerprints *and* these counters match.
    ``train_frames`` rides in the last column; shard identity tests mask
    it on the cut ports only (a boundary hop cannot fuse)."""
    if nodes is None:
        nodes = topo.nodes()
    rows = []
    for node in nodes:
        for port in node.ports:
            rows.append(
                (
                    node.name,
                    port.index,
                    port.tx_packets,
                    port.tx_bytes,
                    port.rx_packets,
                    port.rx_bytes,
                    port.drops,
                    port.ecn_marked,
                    port.pause_sent,
                    port.pause_received,
                    port.resume_sent,
                    port.resume_received,
                    port.max_qlen,
                    port.train_frames,
                )
            )
    return tuple(sorted(rows))


def sweep(
    fn: str,
    axes: Mapping[str, Sequence],
    *,
    seed: Optional[int] = None,
    jobs: int = 1,
    executor: Optional[SweepExecutor] = None,
    **fixed,
) -> Dict[object, object]:
    """Run ``fn`` (a ``"module:qualname"`` spec target) once per point of
    the cartesian product of ``axes`` — first axis outermost — with
    ``fixed`` and ``seed`` passed to every run, over ``jobs`` worker
    processes.  Returns ``{point: value}`` in product order whatever order
    the pool finished in, so serial and pooled sweeps reduce alike; a
    one-axis sweep is keyed by the bare axis value."""
    points = list(product(*axes.values()))
    specs = [
        RunSpec(fn, dict(zip(axes, point), **fixed), key=point, seed=seed)
        for point in points
    ]
    results = (executor or SweepExecutor(jobs=jobs)).map(specs)
    return {
        (point[0] if len(point) == 1 else point): result.value
        for point, result in zip(points, results)
    }


class _Portable:
    """Result base: pickling keeps every statistic and drops the live
    simulation objects, so the same class is what an in-process caller
    inspects and what a pool worker sends home (``collector`` / ``sim`` /
    ``topo`` read None on the far side)."""

    _LIVE = ("collector", "sim", "topo")

    def __getstate__(self) -> dict:
        return {k: None if k in self._LIVE else v for k, v in self.__dict__.items()}


@dataclass(eq=False)
class MicrobenchResult(_Portable):
    """Output of :func:`run_microbench`: the series the paper plots, plus
    the live ``topo`` / ``sim`` for in-process callers."""

    cc: str
    link_rate_gbps: float
    queue: TimeSeries
    rates: Dict[int, TimeSeries]
    utilization: TimeSeries
    pause_frames: int
    topo: Topology
    sim: Simulator
    seed: int = 1
    events_dispatched: int = field(init=False)

    def __post_init__(self) -> None:
        self.events_dispatched = self.sim.events_dispatched

    @property
    def peak_queue_bytes(self) -> float:
        return self.queue.max()


#: Sampling period of the queue and rate series; the utilization series
#: averages over five of them.
SAMPLE_US = 1.0


def run_microbench(
    cc: str,
    duration_us: float = 700.0,
    link_rate_gbps: float = 100.0,
    flow_size_bytes: int = 20 * MB,
    stagger_us: float = 300.0,
    seed: int = 1,
    pfc_xoff: int = 500 * KB,
    topo_builder: Callable[..., Topology] = dumbbell,
    **fabric_kw,
) -> MicrobenchResult:
    """The Figs. 1/3/9/13 micro-benchmark: staggered elephants on a
    dumbbell, run for ``duration_us``, with the series the paper plots.

    flow0 starts at t=0 at line rate; flow1 joins at ``stagger_us`` (300 us
    in the paper).  ``topo_builder`` is called with no sizes (the dumbbell's
    and :func:`~repro.topo.parkinglot.congestion_at`'s defaults are the
    Fig. 10/11 shapes); every host but the last sends to the last.  The
    monitored egress queue is the port, toward the next chain element, of
    the switch the topology names as congested (``congested_switch_index``,
    Fig. 11's chains) or of switch0.  ``fabric_kw`` (``lb``,
    ``switch_config``, ``transport_config``, CC parameters) go to
    :func:`build_fabric`.
    """
    fabric = build_fabric(
        cc,
        topo_builder,
        {},
        seed=seed,
        link_rate_gbps=link_rate_gbps,
        pfc_xoff=pfc_xoff,
        **fabric_kw,
    )
    sim, topo = fabric.sim, fabric.topo
    *senders, receiver = topo.hosts
    flows = staggered_elephants(
        sender_ids=[h.host_id for h in senders],
        receiver_id=receiver.host_id,
        size_bytes=flow_size_bytes,
        stagger_ps=us(stagger_us),
    )
    congested = getattr(topo, "congested_switch_index", 0)
    sw = topo.switches[congested]
    nxt = (
        topo.switches[congested + 1].name
        if congested + 1 < len(topo.switches)
        else receiver.name
    )
    port = sw.ports[topo.adj[sw.name][nxt]["ports"][sw.name]]
    qps = launch_flows(topo, flows, fabric.env)
    queue_mon = QueueSampler(sim, port, interval_ps=us(SAMPLE_US))
    util_mon = UtilizationSampler(sim, port, interval_ps=us(5 * SAMPLE_US))
    rate_mons = {
        fid: RateSampler(sim, qp, interval_ps=us(SAMPLE_US)) for fid, qp in qps.items()
    }
    sim.run(until=us(duration_us))
    return MicrobenchResult(
        cc=cc,
        link_rate_gbps=link_rate_gbps,
        queue=queue_mon.series,
        rates={fid: mon.series for fid, mon in rate_mons.items()},
        utilization=util_mon.series,
        pause_frames=pause_frame_count(topo.switches),
        topo=topo,
        sim=sim,
        seed=seed,
    )


def microbench_grid(
    rates: Sequence[float], ccs: Sequence[str], jobs: int = 1, **kwargs
) -> Dict[float, Dict[str, MicrobenchResult]]:
    """The rate × CC grid of Figs. 1, 3 and 9 as ``{rate: {cc: result}}``,
    fanned over ``jobs`` worker processes; ``kwargs`` reach every
    :func:`run_microbench` cell.  Results that crossed the pool lack only
    the live ``topo`` / ``sim`` (the samples are byte-identical — a cell
    does not know how it was scheduled)."""
    cells = sweep(
        "repro.experiments.common:run_microbench",
        dict(link_rate_gbps=rates, cc=ccs),
        jobs=jobs,
        **kwargs,
    )
    out: Dict[float, Dict[str, MicrobenchResult]] = {rate: {} for rate in rates}
    for (rate, cc), result in cells.items():
        out[rate][cc] = result
    return out


def quick_dumbbell(cc: str = "fncc", **kw) -> MicrobenchResult:
    """One-call demo: two staggered elephants on the Fig. 10 dumbbell."""
    return run_microbench(cc, **kw)
