"""Shared experiment plumbing.

:func:`build_cc_env` maps an algorithm name to everything the fabric needs:
the switch INT mode, ECN marking (DCQCN), CNP generation at receivers, the
per-flow CC factory, and any switch-resident machinery (RoCC's PI
controllers).  :func:`run_microbench` runs the dumbbell/parking-lot
scenarios shared by Figs. 1, 3, 9 and 13.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.cc import install_rocc, make_cc_factory
from repro.cc.registry import CcFactory
from repro.metrics.monitors import (
    QueueSampler,
    RateSampler,
    UtilizationSampler,
    pause_frame_count,
)
from repro.net.port import EcnConfig
from repro.net.switch import IntMode, SwitchConfig
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequenceFactory
from repro.topo.base import LinkSpec, Topology
from repro.topo.dumbbell import dumbbell
from repro.traffic.generator import staggered_elephants
from repro.transport.flow import Flow
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


def launch_flows(topo: Topology, flows: Sequence[Flow], env: CcEnv) -> Dict[int, object]:
    """Register receivers and schedule senders; returns flow_id -> SenderQP."""
    qps: Dict[int, object] = {}
    for flow in flows:
        topo.hosts[flow.dst].register_receiver(flow)
    for flow in flows:
        src_host = topo.hosts[flow.src]
        cc = env.cc_factory(flow, src_host)
        base_rtt = topo.base_rtt_ps(flow.src, flow.dst)
        qps[flow.flow_id] = src_host.start_flow(flow, cc, base_rtt)
    return qps


def portstats_fingerprint(topo: Topology) -> tuple:
    """Every port counter of every node as one sorted, hashable tuple —
    the PortStats half of the zero-perturbation witness (DESIGN.md §10):
    two runs are byte-identical at the wire iff their FCT fingerprints
    *and* these counters match."""
    rows = []
    for node in list(getattr(topo, "hosts", ())) + list(getattr(topo, "switches", ())):
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


class MicrobenchResult:
    """Output of :func:`run_microbench`: the series the paper plots."""

    def __init__(
        self,
        cc: str,
        link_rate_gbps: float,
        queue: "TimeSeries",
        rates: Dict[int, "TimeSeries"],
        utilization: "TimeSeries",
        pause_frames: int,
        topo: Topology,
        sim: Simulator,
    ) -> None:
        self.cc = cc
        self.link_rate_gbps = link_rate_gbps
        self.queue = queue
        self.rates = rates
        self.utilization = utilization
        self.pause_frames = pause_frames
        self.topo = topo
        self.sim = sim

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


class MicrobenchSummary:
    """A portable :class:`MicrobenchResult`: the plotted series plus pause
    and event counters, no topology or simulator attached — what sweep
    workers return for Fig. 9-style runs."""

    def __init__(
        self,
        cc: str,
        link_rate_gbps: float,
        queue: "TimeSeries",
        rates: Dict[int, "TimeSeries"],
        utilization: "TimeSeries",
        pause_frames: int,
        events_dispatched: int,
        seed: int,
    ) -> None:
        self.cc = cc
        self.link_rate_gbps = link_rate_gbps
        self.queue = queue
        self.rates = rates
        self.utilization = utilization
        self.pause_frames = pause_frames
        self.events_dispatched = events_dispatched
        self.seed = seed

    @property
    def peak_queue_bytes(self) -> float:
        return self.queue.max()

    def fingerprint(self) -> tuple:
        """Every sampled series plus the pause/event counters — the
        byte-identity witness for serial-vs-parallel comparisons."""
        return (
            self.pause_frames,
            self.events_dispatched,
            tuple(self.queue.times),
            tuple(self.queue.values),
            tuple(
                (fid, tuple(s.times), tuple(s.values))
                for fid, s in sorted(self.rates.items())
            ),
            tuple(self.utilization.times),
            tuple(self.utilization.values),
        )


def summarize_microbench(result: "MicrobenchResult", seed: int) -> MicrobenchSummary:
    return MicrobenchSummary(
        cc=result.cc,
        link_rate_gbps=result.link_rate_gbps,
        queue=result.queue,
        rates=result.rates,
        utilization=result.utilization,
        pause_frames=result.pause_frames,
        events_dispatched=result.sim.events_dispatched,
        seed=seed,
    )


def run_microbench_summary(cc: str, seed: int = 1, **kwargs) -> MicrobenchSummary:
    """Sweep-spec target: one microbench run as a portable summary."""
    return summarize_microbench(run_microbench(cc, seed=seed, **kwargs), seed)


def quick_dumbbell(
    cc: str = "fncc", link_rate_gbps: float = 100.0, **kw
) -> "MicrobenchResult":
    """One-call demo: two staggered elephants on the Fig. 10 dumbbell."""
    return run_microbench(cc, link_rate_gbps=link_rate_gbps, **kw)


def run_microbench(
    cc: str,
    link_rate_gbps: float = 100.0,
    n_senders: int = 2,
    n_switches: int = 3,
    flow_size_bytes: int = 20 * MB,
    stagger_us: float = 300.0,
    duration_us: float = 700.0,
    sample_us: float = 1.0,
    seed: int = 1,
    pfc_xoff: int = 500 * KB,
    topo_builder: Optional[Callable[..., Topology]] = None,
    monitor_switch: int = 0,
    monitor_port: Optional[int] = None,
    lb=None,
    **cc_params,
) -> MicrobenchResult:
    """The Figs. 1/3/9 micro-benchmark: staggered elephants on a dumbbell.

    flow0 starts at t=0 at line rate; flow1 joins at ``stagger_us`` (300 µs
    in the paper); the monitored egress queue is switch0's port toward
    switch1 (override with ``monitor_switch``/``monitor_port``).

    ``lb`` (a strategy name or :class:`repro.lb.LbConfig`) is forwarded to
    the builder; custom ``topo_builder`` callables must accept the kwarg.
    """
    sim = Simulator()
    seeds = SeedSequenceFactory(seed)
    env = build_cc_env(cc, link_rate_gbps=link_rate_gbps, pfc_xoff=pfc_xoff, **cc_params)
    link = LinkSpec(rate_gbps=link_rate_gbps, prop_delay_ps=us(1.5))
    builder = topo_builder or dumbbell
    builder_kw = {}
    if lb is not None:
        # Only forwarded when requested, so pre-LB custom builders without
        # the kwarg keep working; install_lb normalizes names/configs.
        builder_kw["lb"] = lb
    topo = builder(
        sim,
        n_senders=n_senders,
        n_switches=n_switches,
        link=link,
        switch_config=env.switch_config,
        seeds=seeds,
        cnp_enabled=env.cnp_enabled,
        **builder_kw,
    )
    env.post_install(topo)

    receiver = topo.hosts[-1]
    flows = staggered_elephants(
        sender_ids=[h.host_id for h in topo.hosts[:n_senders]],
        receiver_id=receiver.host_id,
        size_bytes=flow_size_bytes,
        stagger_ps=us(stagger_us),
    )
    qps = launch_flows(topo, flows, env)

    # Congestion point: switch0's egress toward the next chain element.
    sw = topo.switches[monitor_switch]
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
    rmons = {fid: RateSampler(sim, qp, interval_ps=us(sample_us)) for fid, qp in qps.items()}

    sim.run(until=us(duration_us))

    return MicrobenchResult(
        cc=cc,
        link_rate_gbps=link_rate_gbps,
        queue=qmon.series,
        rates={fid: mon.series for fid, mon in rmons.items()},
        utilization=umon.series,
        pause_frames=pause_frame_count(topo.switches),
        topo=topo,
        sim=sim,
    )
