"""The §5.5 large-scale experiment: FCT slowdown on a fat-tree under
Poisson traffic from the WebSearch / FB_Hadoop distributions at 50% load.

Scaling (DESIGN.md): the paper uses k=8 (128 servers) and minutes of
traffic on a C++ simulator.  Pure Python defaults to k=4 (16 servers),
a few hundred flows, and a flow-size ``scale`` < 1; FCT *slowdown* is
normalized so the comparative shape survives.  Full-scale parameters are
plain arguments (``k=8, scale=1.0, n_flows=...``).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.exec import SweepExecutor
from repro.experiments.common import CcEnv, build_fabric, launch_flows, sweep
from repro.metrics.fct import (
    SIZE_BINS_HADOOP,
    SIZE_BINS_WEBSEARCH,
    FctCollector,
    SlowdownTable,
)
from repro.sim.engine import Simulator
from repro.topo.base import Topology
from repro.topo.fattree import fattree
from repro.traffic.cdf import PiecewiseCdf
from repro.traffic.distributions import fb_hadoop_cdf, websearch_cdf
from repro.traffic.generator import PoissonWorkload
from repro.transport.flow import Flow
from repro.units import MS

WORKLOADS = {
    "websearch": (websearch_cdf, SIZE_BINS_WEBSEARCH),
    "hadoop": (fb_hadoop_cdf, SIZE_BINS_HADOOP),
}


class FctResult:
    """Everything Figs. 14/15 need: the collector and the binned table."""

    def __init__(
        self,
        cc: str,
        workload: str,
        collector: FctCollector,
        bins: Sequence[int],
        n_flows: int,
        sim: Simulator,
        topo=None,
    ) -> None:
        self.cc = cc
        self.workload = workload
        self.collector = collector
        self.bins = list(bins)
        self.n_flows = n_flows
        self.sim = sim
        # The live fabric (perf harness reads per-port tx counters off it
        # for the frame_hops metric); None for legacy callers.
        self.topo = topo

    @property
    def table(self) -> SlowdownTable:
        return self.collector.table(self.bins)

    def completed(self) -> int:
        return self.collector.completed()

    def fct_fingerprint(self) -> Tuple[Tuple[int, int], ...]:
        """(flow_id, fct_ps) pairs, sorted — the determinism witness."""
        return self.collector.fingerprint()


class FctSummary:
    """A portable :class:`FctResult`: the binned table, counts and the FCT
    fingerprint computed eagerly in the worker, no simulator attached.
    Exposes the same surface the figure renderers use (``.table``,
    ``.bins``, ``.completed()``)."""

    def __init__(
        self,
        cc: str,
        workload: str,
        table: SlowdownTable,
        bins: Sequence[int],
        n_flows: int,
        completed: int,
        fingerprint: Tuple[Tuple[int, int], ...],
        events_dispatched: int,
        seed: int,
        frame_hops: int = 0,
        backend: str = "packet",
        obs_snapshot: Optional[dict] = None,
    ) -> None:
        self.cc = cc
        self.workload = workload
        self.table = table
        self.bins = list(bins)
        self.n_flows = n_flows
        self._completed = completed
        self._fingerprint = fingerprint
        self.events_dispatched = events_dispatched
        self.seed = seed
        # Frames delivered across any link (in-worker sum of per-port tx
        # counters) — the perf harness's simulated-work unit.
        self.frame_hops = frame_hops
        # Which simulation backend produced this summary
        # ("packet" | "flow" | "hybrid") — provenance for bench history.
        self.backend = backend
        # Metrics-registry snapshot taken in the worker (plain dict, so it
        # pickles home); merged across workers by
        # :func:`repro.obs.merge_snapshots`.  None when obs was off.
        self.obs_snapshot = obs_snapshot

    def completed(self) -> int:
        return self._completed

    def fct_fingerprint(self) -> Tuple[Tuple[int, int], ...]:
        return self._fingerprint


def summarize_fct_result(
    result: FctResult, seed: int, backend: str = "packet", obs=None
) -> FctSummary:
    from repro.metrics.monitors import topo_frame_hops

    topo = result.topo
    return FctSummary(
        cc=result.cc,
        workload=result.workload,
        table=result.table,
        bins=result.bins,
        n_flows=result.n_flows,
        completed=result.completed(),
        fingerprint=result.fct_fingerprint(),
        events_dispatched=result.sim.events_dispatched if result.sim else 0,
        seed=seed,
        frame_hops=topo_frame_hops(topo) if topo is not None else 0,
        backend=backend,
        obs_snapshot=obs.snapshot() if obs is not None else None,
    )


def run_fct_summary(
    cc: str,
    seed: int = 1,
    backend: str = "packet",
    obs=None,
    obs_snapshot: bool = False,
    **kwargs,
) -> FctSummary:
    """Sweep-spec target: one (CC, workload) cell as a portable summary.

    ``backend`` selects the simulation tier: ``"packet"`` (discrete-event,
    the default), ``"flow"`` (pure max-min fluid) or ``"hybrid"``
    (packet-level only across congested links, DESIGN.md §6).

    ``obs`` is a live :class:`repro.obs.RunObservability` bundle (in-
    process callers only — it is not picklable); ``obs_snapshot=True`` is
    the pool-safe form, building a registry-only bundle *inside* the
    worker so the snapshot rides home on the summary and the reduce step
    can merge snapshots across workers.
    """
    if obs is None and obs_snapshot:
        from repro.obs import MetricsRegistry, RunObservability

        obs = RunObservability(registry=MetricsRegistry())
    if backend == "packet":
        return summarize_fct_result(
            run_fct_experiment(cc, seed=seed, obs=obs, **kwargs), seed, obs=obs
        )
    # Deferred import: repro.hybrid.backend imports this module.
    from repro.hybrid.backend import run_fct_hybrid

    if backend == "flow":
        result = run_fct_hybrid(cc, seed=seed, threshold=None, obs=obs, **kwargs)
    elif backend == "hybrid":
        result = run_fct_hybrid(cc, seed=seed, obs=obs, **kwargs)
    else:
        raise ValueError(
            f"backend must be one of ('packet', 'flow', 'hybrid'), got {backend!r}"
        )
    return summarize_fct_result(result, seed, backend=backend, obs=obs)


class FctFabric(NamedTuple):
    """One fully-built (CC, workload) cell, flows generated but *not*
    launched: the shared substrate of the packet experiment and the hybrid
    backend's packet phases (which launch only the demoted subset on it)."""

    sim: Simulator
    topo: Topology
    env: CcEnv
    collector: FctCollector
    flows: List[Flow]
    bins: List[int]
    cdf: PiecewiseCdf


def build_fct_fabric(
    cc: str,
    workload: str = "websearch",
    k: int = 4,
    load: float = 0.5,
    n_flows: int = 200,
    scale: float = 0.1,
    link_rate_gbps: float = 100.0,
    seed: int = 1,
    bins: Optional[Sequence[int]] = None,
    lb=None,
    **cc_params,
) -> FctFabric:
    """Build the §5.5 fabric + workload for one cell; deterministic in
    ``seed`` (every RNG stream is name-derived, so two fabrics built with
    the same arguments generate byte-identical flow lists and routing)."""
    if workload not in WORKLOADS:
        raise ValueError(f"workload must be one of {sorted(WORKLOADS)}")
    cdf_fn, default_bins = WORKLOADS[workload]
    cdf: PiecewiseCdf = cdf_fn(scale=scale)
    bins = list(bins) if bins is not None else [round(b * scale) for b in default_bins]

    # ``fattree`` is read off this module at call time: the benchmark suite
    # times it by replacing the attribute.
    fab = build_fabric(
        cc, fattree, dict(k=k), seed=seed, link_rate_gbps=link_rate_gbps, lb=lb,
        **cc_params,
    )
    flows = PoissonWorkload(
        n_hosts=len(fab.topo.hosts),
        host_rate_gbps=link_rate_gbps,
        cdf=cdf,
        load=load,
        seeds=fab.seeds,
    ).generate(n_flows)
    return FctFabric(fab.sim, fab.topo, fab.env, fab.collector, flows, bins, cdf)


def drive_fct(
    sim: Simulator,
    collector: FctCollector,
    n_flows: int,
    max_horizon_ms: float,
    progress=None,
    resolved: Optional[Callable[[], int]] = None,
) -> None:
    """Chunked drive loop: run until every launched flow completes or the
    horizon elapses (stragglers under a misbehaving CC should not hang the
    harness; the completion count is part of the result).  ``resolved``
    replaces the completion count as the stop test where a flow can also
    end flow-failed (the fault matrix).

    ``progress`` (a :class:`repro.obs.ProgressReporter`) heartbeats once
    per chunk, wall-clock rate-limited; the first chunk is forced so even
    a short run prints at least one line.
    """
    horizon = round(max_horizon_ms * MS)
    chunk = MS // 2
    t = 0
    first = True
    resolved = resolved or collector.completed
    while resolved() < n_flows and t < horizon:
        t = min(t + chunk, horizon)
        sim.run(until=t)
        if progress is not None:
            progress.tick(
                sim,
                completed=collector.completed(),
                total=n_flows,
                horizon_ps=horizon,
                force=first,
            )
            first = False
        if sim.peek() is None:
            break
    if progress is not None:
        progress.finish(sim, completed=collector.completed(), total=n_flows)


def launch_and_drive(
    fab, flows, max_horizon_ms: float, obs=None, resolved=None
) -> None:
    """Launch ``flows`` on the unlaunched ``fab`` and :func:`drive_fct`
    them, inside ``obs``'s guard when a
    :class:`repro.obs.RunObservability` bundle is given (it is attached
    first; its progress reporter heartbeats the drive)."""
    if obs is not None:
        obs.attach(fab.sim, fab.topo, collector=fab.collector)
    with obs.guard(sim=fab.sim, topo=fab.topo) if obs is not None else nullcontext():
        launch_flows(fab.topo, flows, fab.env)
        drive_fct(
            fab.sim,
            fab.collector,
            len(flows),
            max_horizon_ms,
            progress=obs.progress if obs is not None else None,
            resolved=resolved,
        )


def run_fct_experiment(
    cc: str,
    workload: str = "websearch",
    max_horizon_ms: float = 50.0,
    obs=None,
    faults=None,
    **kwargs,
) -> FctResult:
    """Run one (CC, workload) cell of Figs. 14/15.

    ``lb`` selects the load-balancing strategy (name or
    :class:`repro.lb.LbConfig`); None keeps the symmetric-ECMP baseline.
    ``obs`` attaches a :class:`repro.obs.RunObservability` bundle to the
    cell (registry snapshot, trace hooks, flight guard, progress) —
    registry/tracer observability is byte-identical and train-safe
    (``tests/obs`` pins it).  ``faults`` arms a
    :class:`repro.faults.FaultPlan` against the freshly built fabric
    before any flow launches; None (and the no-op plan) is provably
    zero-perturbation (``tests/faults/test_inject.py``).  See
    :func:`build_fct_fabric` for the remaining knobs.
    """
    fab = build_fct_fabric(cc, workload=workload, **kwargs)
    if faults is not None:
        from repro.faults import FaultInjector

        FaultInjector(faults).arm(
            fab.sim,
            fab.topo,
            seeds=fab.topo.seeds,
            registry=getattr(obs, "registry", None),
            tracer=getattr(obs, "tracer", None),
        )
    launch_and_drive(fab, fab.flows, max_horizon_ms, obs=obs)
    return FctResult(
        cc, workload, fab.collector, fab.bins, len(fab.flows), fab.sim, topo=fab.topo
    )


def compare_ccs(
    ccs: Sequence[str] = ("dcqcn", "hpcc", "fncc"),
    workload: str = "websearch",
    **kwargs,
) -> Dict[str, FctResult]:
    """One Figs. 14/15 panel family: the same workload under each CC.

    In-process and rich (live collectors/simulators) — monitors and perf
    harnesses use this.  Figure runners go through :func:`compare_ccs_sweep`
    for the pool path.
    """
    return {cc: run_fct_experiment(cc, workload=workload, **kwargs) for cc in ccs}


def compare_ccs_sweep(
    ccs: Sequence[str] = ("dcqcn", "hpcc", "fncc"),
    workload: str = "websearch",
    seed: int = 1,
    jobs: int = 1,
    executor: Optional[SweepExecutor] = None,
    **kwargs,
) -> Dict[str, FctSummary]:
    """Pool-capable :func:`compare_ccs`: one spec per CC, portable
    summaries back, reduced in CC order regardless of completion order."""
    return sweep(
        "repro.experiments.fct_experiment:run_fct_summary",
        dict(cc=ccs),
        seed=seed,
        jobs=jobs,
        executor=executor,
        workload=workload,
        **kwargs,
    )


def slowdown_reduction(
    results: Dict[str, FctSummary], column: str, **size_filter
) -> Dict[str, float]:
    """FNCC's reduction (%) of one aggregate slowdown statistic against
    every other CC in ``results``, over the flows ``size_filter``
    (``min_size=`` / ``max_size=``, see :meth:`SlowdownTable.aggregate`)
    selects — the form of every headline claim."""
    fncc = results["fncc"].table.aggregate(column, **size_filter)
    out = {}
    for cc, result in results.items():
        if cc == "fncc":
            continue
        base = result.table.aggregate(column, **size_filter)
        if base and fncc:
            out[cc] = 100.0 * (base - fncc) / base
    return out


def format_panel(
    results: Dict[str, FctResult], column: str, title: str
) -> str:
    """Render one panel (avg / median / p95 / p99) as the paper's rows:
    size bins across, one line per CC."""
    ccs = list(results)
    bins = results[ccs[0]].bins
    lines = [title]
    header = f"{'cc':>8} " + " ".join(f"{_short_size(b):>8}" for b in bins)
    lines.append(header)
    for cc in ccs:
        table = results[cc].table
        cells = []
        for b in bins:
            s = table.stat(b, column)
            cells.append(f"{s:8.2f}" if s is not None else f"{'-':>8}")
        lines.append(f"{cc:>8} " + " ".join(cells))
    return "\n".join(lines)


def _short_size(nbytes: int) -> str:
    if nbytes >= 1_000_000:
        return f"{nbytes / 1_000_000:g}M"
    if nbytes >= 1_000:
        return f"{nbytes / 1_000:g}K"
    return f"{nbytes}B"
