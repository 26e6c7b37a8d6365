"""Shared experiment plumbing: the one shape every cell has (DESIGN.md §5.1).

**fabric** — :func:`build_cc_env` maps an algorithm name to everything the
fabric needs (switch INT mode, ECN marking, CNP generation, the per-flow CC
factory, switch-resident machinery such as RoCC's PI controllers) and
:func:`build_fabric` turns that plus a topology builder into an unlaunched
:class:`Fabric`; :func:`build_microbench_fabric` adds the staggered
elephants and the monitored port of Figs. 1, 3, 9 and 13.
**launch** — :func:`launch_flows`, whole or one shard's share.
**result** — :class:`FctCell` and :class:`MicrobenchResult` serve the
in-process caller and the pool worker alike: pickling drops only the live
simulator objects.  :func:`sweep` fans any of it over axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.cc import install_rocc, make_cc_factory
from repro.cc.registry import CcFactory
from repro.exec import RunSpec, SweepExecutor
from repro.metrics.fct import FctCollector
from repro.metrics.monitors import (
    QueueSampler,
    RateSampler,
    UtilizationSampler,
    pause_frame_count,
    topo_frame_hops,
)
from repro.metrics.series import TimeSeries
from repro.metrics.stats import mean, percentile
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

WINDOW_BASED = {"hpcc", "fncc", "swift"}


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
    """One cell, built, routed and CC-installed, with nothing launched."""

    sim: Simulator
    seeds: SeedSequenceFactory
    env: CcEnv
    topo: Topology
    collector: FctCollector


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
    as one sorted, hashable tuple — the PortStats half of the
    zero-perturbation witness (DESIGN.md §10): two runs are byte-identical
    at the wire iff their FCT fingerprints *and* these counters match.
    ``train_frames`` rides in the last column; shard identity tests mask
    it on the cut ports only (a boundary hop cannot fuse)."""
    if nodes is None:
        nodes = list(getattr(topo, "hosts", ())) + list(getattr(topo, "switches", ()))
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


class FctCell(_Portable):
    """Outcome of one FCT cell (``run_lb_cell`` / ``run_fault_cell``).

    Statistics and the fingerprint are taken at construction, when the run
    has ended, so they read the same live and unpickled.  ``hung`` counts
    flows neither completed nor flow-failed — the graceful-degradation
    criterion of the fault matrix demands zero."""

    def __init__(
        self,
        key: tuple,
        seed: int,
        fabric,
        n_flows: int,
        failed: int = 0,
        fault_counters: Optional[Dict[str, int]] = None,
    ) -> None:
        collector = fabric.collector
        fcts = [r.fct_ps for r in collector.records]
        slowdowns = collector.slowdowns()
        nan = float("nan")
        self.key = key
        self.seed = seed
        self.n_flows = n_flows
        self.completed = collector.completed()
        self.failed = failed
        self.hung = n_flows - self.completed - failed
        self.mean_fct_us = mean(fcts) / us(1) if fcts else nan
        self.p99_fct_us = percentile(fcts, 99) / us(1) if fcts else nan
        self.mean_slowdown = mean(slowdowns) if slowdowns else nan
        self._fingerprint = collector.fingerprint()
        self.fault_counters = fault_counters or {}
        self.events_dispatched = fabric.sim.events_dispatched
        # Frames delivered across any link (sum of per-port tx counters) —
        # the simulated-work unit.
        self.frame_hops = topo_frame_hops(fabric.topo)
        self.collector = collector
        self.sim = fabric.sim
        self.topo = fabric.topo

    def fct_fingerprint(self) -> Tuple[Tuple[int, int], ...]:
        """(flow_id, fct_ps) pairs, sorted — the determinism witness."""
        return self._fingerprint


def series_samples(series: TimeSeries) -> tuple:
    """A series as plain ``(times, values)`` tuples."""
    return (tuple(series.times), tuple(series.values))


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

    def summary(self) -> str:
        lines = [
            f"cc={self.cc} rate={self.link_rate_gbps}G",
            f"  peak queue      : {self.peak_queue_bytes / KB:8.1f} KB",
            f"  pause frames    : {self.pause_frames}",
            f"  mean utilization: {self.utilization.mean():.3f}",
        ]
        return "\n".join(lines)

    def series_fingerprint(self) -> tuple:
        """The pause count and every sampled series: the witness a sharded
        run must reproduce (its ``events_dispatched`` legitimately differs,
        DESIGN.md §11)."""
        return (
            self.pause_frames,
            *series_samples(self.queue),
            tuple((fid, *series_samples(s)) for fid, s in sorted(self.rates.items())),
            *series_samples(self.utilization),
        )

    def fingerprint(self) -> tuple:
        """:meth:`series_fingerprint` plus the event count — the
        byte-identity witness for serial-vs-pooled comparisons."""
        return (self.events_dispatched, *self.series_fingerprint())


@dataclass
class MicrobenchFabric:
    """The staggered-elephant cell of Figs. 1/3/9/13, built but not
    launched: :meth:`launch` starts the flows and the samplers (all of
    them, or one shard's share), :meth:`result` reads the samplers out."""

    cc: str
    link_rate_gbps: float
    seed: int
    fabric: Fabric
    flows: Sequence[Flow]
    switch: object
    port: object
    sample_us: float
    queue_mon: Optional[QueueSampler] = None
    util_mon: Optional[UtilizationSampler] = None
    rate_mons: Dict[int, RateSampler] = field(default_factory=dict)

    def launch(self, owned=None) -> None:
        """``owned`` as in :func:`launch_flows`; a sampler attaches only
        where the object it samples is owned (samplers are Periodic, so
        their ticks land at the serial timestamps whichever shard hosts
        them)."""
        sim = self.fabric.sim
        qps = launch_flows(self.fabric.topo, self.flows, self.fabric.env, owned)
        if owned is None or self.switch.name in owned:
            self.queue_mon = QueueSampler(sim, self.port, interval_ps=us(self.sample_us))
            self.util_mon = UtilizationSampler(
                sim, self.port, interval_ps=us(5 * self.sample_us)
            )
        self.rate_mons = {
            fid: RateSampler(sim, qp, interval_ps=us(self.sample_us))
            for fid, qp in qps.items()
        }

    def result(self) -> MicrobenchResult:
        """``queue`` and ``utilization`` are None on a shard that does not
        own the monitored port."""
        topo = self.fabric.topo
        return MicrobenchResult(
            cc=self.cc,
            link_rate_gbps=self.link_rate_gbps,
            queue=self.queue_mon and self.queue_mon.series,
            rates={fid: mon.series for fid, mon in self.rate_mons.items()},
            utilization=self.util_mon and self.util_mon.series,
            pause_frames=pause_frame_count(topo.switches),
            topo=topo,
            sim=self.fabric.sim,
            seed=self.seed,
        )


def build_microbench_fabric(
    cc: str,
    link_rate_gbps: float = 100.0,
    n_senders: int = 2,
    n_switches: int = 3,
    flow_size_bytes: int = 20 * MB,
    stagger_us: float = 300.0,
    sample_us: float = 1.0,
    seed: int = 1,
    pfc_xoff: int = 500 * KB,
    topo_builder: Callable[..., Topology] = dumbbell,
    monitor_switch: Optional[int] = None,
    monitor_port: Optional[int] = None,
    **fabric_kw,
) -> MicrobenchFabric:
    """The Figs. 1/3/9 micro-benchmark, unlaunched: staggered elephants on
    a dumbbell.

    flow0 starts at t=0 at line rate; flow1 joins at ``stagger_us`` (300 us
    in the paper).  ``topo_builder`` takes ``n_senders`` / ``n_switches``
    and puts the senders first and the receiver last in ``topo.hosts``.
    The monitored egress queue is the port of ``monitor_switch`` toward the
    next chain element: the switch the topology names as congested
    (``topo.congested_switch_index``, Fig. 11's chains) or switch0.
    ``fabric_kw`` (``lb``, ``switch_config``, ``transport_config``, CC
    parameters) go to :func:`build_fabric`.
    """
    fabric = build_fabric(
        cc,
        topo_builder,
        dict(n_senders=n_senders, n_switches=n_switches),
        seed=seed,
        link_rate_gbps=link_rate_gbps,
        pfc_xoff=pfc_xoff,
        **fabric_kw,
    )
    topo = fabric.topo
    receiver = topo.hosts[-1]
    flows = staggered_elephants(
        sender_ids=[h.host_id for h in topo.hosts[:n_senders]],
        receiver_id=receiver.host_id,
        size_bytes=flow_size_bytes,
        stagger_ps=us(stagger_us),
    )
    if monitor_switch is None:
        monitor_switch = getattr(topo, "congested_switch_index", 0)
    sw = topo.switches[monitor_switch]
    if monitor_port is None:
        nxt = (
            topo.switches[monitor_switch + 1].name
            if monitor_switch + 1 < len(topo.switches)
            else receiver.name
        )
        monitor_port = topo.adj[sw.name][nxt]["ports"][sw.name]
    return MicrobenchFabric(
        cc, link_rate_gbps, seed, fabric, flows, sw, sw.ports[monitor_port], sample_us
    )


def run_microbench(cc: str, duration_us: float = 700.0, **kwargs) -> MicrobenchResult:
    """Run :func:`build_microbench_fabric`'s cell (same keywords) for
    ``duration_us`` and return the sampled series."""
    cell = build_microbench_fabric(cc, **kwargs)
    cell.launch()
    cell.fabric.sim.run(until=us(duration_us))
    return cell.result()


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


def quick_dumbbell(
    cc: str = "fncc", link_rate_gbps: float = 100.0, **kw
) -> MicrobenchResult:
    """One-call demo: two staggered elephants on the Fig. 10 dumbbell."""
    return run_microbench(cc, link_rate_gbps=link_rate_gbps, **kw)
