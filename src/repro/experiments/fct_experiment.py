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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec import SweepExecutor
from repro.experiments.common import Fabric, _Portable, build_fabric, launch_flows, sweep
from repro.metrics.fct import SIZE_BINS_HADOOP, SIZE_BINS_WEBSEARCH, FctCollector
from repro.metrics.monitors import topo_frame_hops
from repro.metrics.stats import mean, percentile
from repro.sim.engine import Simulator
from repro.topo.fattree import fattree
from repro.traffic.distributions import fb_hadoop_cdf, websearch_cdf
from repro.traffic.generator import PoissonWorkload
from repro.units import MS, us

WORKLOADS = {
    "websearch": (websearch_cdf, SIZE_BINS_WEBSEARCH),
    "hadoop": (fb_hadoop_cdf, SIZE_BINS_HADOOP),
}
#: The §5.5 fabric's link and host rate.
LINK_RATE_GBPS = 100.0


class FctResult(_Portable):
    """The outcome of one FCT cell, whichever driver ran it: the packet
    experiment, the hybrid backend, an LB or a fault matrix cell.

    Every statistic is taken at construction, when the run has ended, so
    it reads the same live and unpickled: pickling drops only
    ``collector``, ``sim`` and ``topo`` (DESIGN.md §5.2).  ``sim`` is None
    when nothing ran as packets (an all-fluid hybrid cell).  ``failed``
    counts flow-failed flows (the fault matrix); ``stats`` holds the run's
    diagnostics (a fault plan's counters, the hybrid phase stats);
    :func:`summarize_fct_result` attaches ``seed`` and ``obs_snapshot``."""

    seed: Optional[int] = None
    #: Metrics-registry snapshot taken in the worker (a plain dict, so it
    #: pickles home; merged across workers by
    #: :func:`repro.obs.merge_snapshots`).  None when obs was off.
    obs_snapshot: Optional[dict] = None

    def __init__(
        self,
        cc: str,
        workload: str,
        collector: FctCollector,
        bins: Sequence[int],
        n_flows: int,
        sim: Optional[Simulator],
        topo=None,
        failed: int = 0,
    ) -> None:
        self.cc = cc
        self.workload = workload
        self.table = collector.table(bins)
        self.bins = self.table.bins  # one list, pickled once
        self.n_flows = n_flows
        self.failed = failed
        self._fingerprint = collector.fingerprint()
        self.events_dispatched = sim.events_dispatched if sim is not None else 0
        # Frames delivered across any link (sum of per-port tx counters) —
        # the simulated-work unit.
        self.frame_hops = topo_frame_hops(topo) if topo is not None else 0
        self.stats: Dict[str, int] = {}
        self.collector = collector
        self.sim = sim
        self.topo = topo

    def completed(self) -> int:
        return len(self._fingerprint)

    @property
    def hung(self) -> int:
        """Flows neither completed nor flow-failed — the fault matrix's
        graceful-degradation criterion demands zero."""
        return self.n_flows - self.completed() - self.failed

    @property
    def mean_fct_us(self) -> float:
        # The FCTs are integers: their sum is exact in any order.
        fcts = [fct for _, fct in self._fingerprint]
        return mean(fcts) / us(1) if fcts else float("nan")

    @property
    def p99_fct_us(self) -> float:
        fcts = [fct for _, fct in self._fingerprint]
        return percentile(fcts, 99) / us(1) if fcts else float("nan")

    def slowdowns(self) -> List[float]:
        """Per-flow slowdowns in completion order; live results only."""
        return self.collector.slowdowns()

    def fct_fingerprint(self) -> Tuple[Tuple[int, int], ...]:
        """(flow_id, fct_ps) pairs, sorted — the determinism witness."""
        return self._fingerprint


def summarize_fct_result(result: FctResult, seed: int, obs=None) -> FctResult:
    """Stamp ``result`` with the seed it ran under and, when ``obs`` (a
    :class:`repro.obs.RunObservability` bundle) is given, its registry
    snapshot; returns ``result``."""
    result.seed = seed
    if obs is not None:
        result.obs_snapshot = obs.snapshot()
    return result


def run_fct_summary(
    cc: str,
    seed: int = 1,
    backend: str = "packet",
    obs=None,
    obs_snapshot: bool = False,
    **kwargs,
) -> FctResult:
    """Sweep-spec target: one (CC, workload) cell, stamped by
    :func:`summarize_fct_result`.

    ``backend`` selects the simulation tier: ``"packet"`` (discrete-event,
    the default) or ``"hybrid"`` (packet-level only across congested
    links, DESIGN.md §6).

    ``obs`` is a live :class:`repro.obs.RunObservability` bundle (in-
    process callers only — it is not picklable); ``obs_snapshot=True`` is
    the pool-safe form, building a registry-only bundle *inside* the
    worker so the snapshot rides home on the result and the reduce step
    can merge snapshots across workers.
    """
    # census: a pooled cell that returns a registry snapshot — tests/obs/test_metrics_registry.py::TestWorkerSnapshots::test_serial_and_pooled_merge_identically
    if obs is None and obs_snapshot:
        from repro.obs import MetricsRegistry, RunObservability

        obs = RunObservability(registry=MetricsRegistry())
    if backend == "packet":
        result = run_fct_experiment(cc, seed=seed, obs=obs, **kwargs)
    elif backend == "hybrid":
        # Deferred import: repro.hybrid.backend imports this module.
        from repro.hybrid.backend import run_fct_hybrid

        result = run_fct_hybrid(cc, seed=seed, obs=obs, **kwargs)
    else:
        raise ValueError(f"backend must be one of ('packet', 'hybrid'), got {backend!r}")
    return summarize_fct_result(result, seed, obs=obs)


def build_fct_fabric(
    cc: str,
    workload: str = "websearch",
    k: int = 4,
    load: float = 0.5,
    n_flows: int = 200,
    scale: float = 0.1,
    seed: int = 1,
    lb=None,
    **cc_params,
) -> Fabric:
    """Build the §5.5 fabric + workload for one cell, flows generated but
    *not* launched: the shared substrate of the packet experiment and the
    hybrid backend's packet phases (which launch only the demoted subset
    on it).  Deterministic in ``seed`` (every RNG stream is name-derived,
    so two fabrics built with the same arguments generate byte-identical
    flow lists and routing)."""
    if workload not in WORKLOADS:
        raise ValueError(f"workload must be one of {sorted(WORKLOADS)}")
    cdf_fn, default_bins = WORKLOADS[workload]
    cdf = cdf_fn(scale=scale)
    bins = [round(b * scale) for b in default_bins]

    # ``fattree`` is read off this module at call time: the benchmark suite
    # times it by replacing the attribute.
    fab = build_fabric(
        cc, fattree, dict(k=k), seed=seed, link_rate_gbps=LINK_RATE_GBPS, lb=lb,
        **cc_params,
    )
    flows = PoissonWorkload(
        n_hosts=len(fab.topo.hosts),
        host_rate_gbps=LINK_RATE_GBPS,
        cdf=cdf,
        load=load,
        seeds=fab.seeds,
    ).generate(n_flows)
    return fab._replace(flows=flows, bins=bins)


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
    fab: Fabric, max_horizon_ms: float, obs=None, resolved=None
) -> None:
    """Launch the flows of the unlaunched ``fab`` and :func:`drive_fct`
    them, inside ``obs``'s guard when a
    :class:`repro.obs.RunObservability` bundle is given (it is attached
    first; its progress reporter heartbeats the drive)."""
    if obs is not None:
        obs.attach(fab.sim, fab.topo, collector=fab.collector)
    with obs.guard(sim=fab.sim, topo=fab.topo) if obs is not None else nullcontext():
        launch_flows(fab.topo, fab.flows, fab.env)
        drive_fct(
            fab.sim,
            fab.collector,
            len(fab.flows),
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
    # census: an armed fault plan — tests/faults/test_inject.py::test_noop_plan_is_zero_perturbation
    if faults is not None:
        from repro.faults import FaultInjector

        FaultInjector(faults).arm(fab.sim, fab.topo, seeds=fab.topo.seeds)
    launch_and_drive(fab, max_horizon_ms, obs=obs)
    return FctResult(
        cc, workload, fab.collector, fab.bins, len(fab.flows), fab.sim, topo=fab.topo
    )


def compare_ccs_sweep(
    ccs: Sequence[str] = ("dcqcn", "hpcc", "fncc"),
    workload: str = "websearch",
    seed: int = 1,
    jobs: int = 1,
    executor: Optional[SweepExecutor] = None,
    **kwargs,
) -> Dict[str, FctResult]:
    """One Figs. 14/15 panel family: the same workload under each CC, one
    spec per CC, reduced in CC order regardless of completion order.
    ``jobs=1`` runs the cells in this process, without pickling."""
    # What a cell imports past the packet path — the fluid engines its
    # backend names, the obs package a snapshot needs — is imported here,
    # so forked workers inherit it instead of each importing it
    # (DESIGN.md §5.4).  A packet cell needs neither.
    if kwargs.get("backend", "packet") != "packet":
        import repro.hybrid.backend
    # census: pooled cells that return registry snapshots — tests/obs/test_metrics_registry.py::TestWorkerSnapshots::test_serial_and_pooled_merge_identically
    if kwargs.get("obs_snapshot"):
        import repro.obs
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
    results: Dict[str, FctResult], column: str, **size_filter
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
