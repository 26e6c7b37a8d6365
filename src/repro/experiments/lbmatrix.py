"""The CC × LB evaluation matrix (``fncc-exp lbmatrix``).

Beyond-the-paper scenario diversity: the paper evaluates its CC schemes on
a single multipath story (symmetric per-flow ECMP); this experiment crosses
every load-balancing strategy in :mod:`repro.lb` — ECMP, per-packet spray,
flowlet switching, ConWeave-lite rerouting — with DCQCN / HPCC / FNCC on
two fabrics (k=4 fat-tree, Jellyfish) under two traffic patterns
(permutation elephants, WebSearch Poisson at 50% load).

Everything is deterministic in the seed: same seed → byte-identical FCT
lists for every cell (pinned by ``tests/experiments/test_lbmatrix.py``).

On the fat-tree permutation scenario, spray and flowlet are expected to
beat per-flow ECMP on mean FCT: ECMP hash collisions put multiple
elephants on one uplink while spray/flowlet use the full path set.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec import RunSpec, SweepExecutor
from repro.experiments.common import CcEnv, build_cc_env, launch_flows
from repro.experiments.fct_experiment import drive_fct
from repro.lb import LbConfig
from repro.metrics.fct import FctCollector
from repro.metrics.stats import mean, percentile
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequenceFactory
from repro.topo.base import LinkSpec
from repro.topo.fattree import fattree
from repro.topo.jellyfish import jellyfish
from repro.traffic.distributions import websearch_cdf
from repro.traffic.generator import PoissonWorkload, permutation_flows
from repro.units import KB, us

LBS = ("ecmp", "spray", "flowlet", "conweave")
CCS = ("dcqcn", "hpcc", "fncc")
TOPOS = ("fattree", "jellyfish")
WORKLOADS = ("permutation", "websearch")

#: A cell key: (topo, workload, lb, cc).
CellKey = Tuple[str, str, str, str]


class LbCell:
    """One matrix cell's outcome."""

    def __init__(
        self,
        key: CellKey,
        collector: FctCollector,
        n_flows: int,
        sim: Simulator,
        topo=None,
    ) -> None:
        self.key = key
        self.collector = collector
        self.n_flows = n_flows
        self.sim = sim
        # The live fabric (per-port tx counters feed the frame_hops
        # metric); None for legacy callers.
        self.topo = topo

    @property
    def completed(self) -> int:
        return self.collector.completed()

    @property
    def mean_fct_us(self) -> float:
        fcts = [r.fct_ps for r in self.collector.records]
        return mean(fcts) / us(1) if fcts else float("nan")

    @property
    def p99_fct_us(self) -> float:
        fcts = [r.fct_ps for r in self.collector.records]
        return percentile(fcts, 99) / us(1) if fcts else float("nan")

    @property
    def mean_slowdown(self) -> float:
        s = self.collector.slowdowns()
        return mean(s) if s else float("nan")

    def fct_fingerprint(self) -> Tuple[Tuple[int, int], ...]:
        """(flow_id, fct_ps) pairs, sorted — the determinism witness."""
        return tuple(
            sorted((r.flow.flow_id, r.fct_ps) for r in self.collector.records)
        )


class LbCellSummary:
    """A portable :class:`LbCell`: the same statistics surface, computed
    eagerly so the object crosses process boundaries (no simulator, no
    collector, no live flows).  This is what sweep workers return."""

    def __init__(
        self,
        key: CellKey,
        seed: int,
        n_flows: int,
        completed: int,
        mean_fct_us: float,
        p99_fct_us: float,
        mean_slowdown: float,
        fingerprint: Tuple[Tuple[int, int], ...],
        events_dispatched: int,
        frame_hops: int = 0,
    ) -> None:
        self.key = key
        self.seed = seed
        self.n_flows = n_flows
        self.completed = completed
        self.mean_fct_us = mean_fct_us
        self.p99_fct_us = p99_fct_us
        self.mean_slowdown = mean_slowdown
        self._fingerprint = fingerprint
        self.events_dispatched = events_dispatched
        # Frames delivered across any link (in-worker sum of per-port tx
        # counters) — the perf harness's simulated-work unit.
        self.frame_hops = frame_hops

    def fct_fingerprint(self) -> Tuple[Tuple[int, int], ...]:
        return self._fingerprint


def summarize_lb_cell(cell: LbCell, seed: int) -> LbCellSummary:
    from repro.metrics.monitors import topo_frame_hops

    topo = cell.topo
    return LbCellSummary(
        key=cell.key,
        seed=seed,
        n_flows=cell.n_flows,
        completed=cell.completed,
        mean_fct_us=cell.mean_fct_us,
        p99_fct_us=cell.p99_fct_us,
        mean_slowdown=cell.mean_slowdown,
        fingerprint=cell.fct_fingerprint(),
        events_dispatched=cell.sim.events_dispatched,
        frame_hops=topo_frame_hops(topo) if topo is not None else 0,
    )


def run_lb_cell_summary(seed: int = 1, **kwargs) -> LbCellSummary:
    """Sweep-spec target: one cell, returned as a portable summary.

    Module-level and data-only by design — this is the function
    :func:`sweep_specs` names, executed either in-process (``jobs=1``) or
    in a spawned worker (``jobs>1``) with byte-identical results.
    """
    return summarize_lb_cell(run_lb_cell(seed=seed, **kwargs), seed)


def make_lb_config(lb: str) -> LbConfig:
    """Matrix-default knobs per strategy (explicit so cells are pinned even
    if library defaults move)."""
    if lb == "flowlet":
        return LbConfig("flowlet", gap_ps=us(15))
    if lb == "conweave":
        return LbConfig("conweave")
    if lb == "spray":
        return LbConfig("spray", mode="round_robin")
    return LbConfig("ecmp", symmetric=True)


def run_lb_cell(
    lb: str,
    cc: str,
    topo_name: str = "fattree",
    workload: str = "permutation",
    seed: int = 1,
    k: int = 4,
    n_switches: int = 8,
    switch_degree: int = 4,
    hosts_per_switch: int = 2,
    link_rate_gbps: float = 100.0,
    perm_flow_bytes: int = 300 * KB,
    n_flows: int = 100,
    load: float = 0.5,
    scale: float = 0.1,
    max_horizon_ms: float = 20.0,
    obs=None,
    **cc_params,
) -> LbCell:
    """Run one (topo, workload, lb, cc) cell and collect FCTs.

    ``obs`` optionally attaches a :class:`repro.obs.RunObservability`
    bundle to the cell (registry reads the LB reroute/probe counters at
    snapshot time; the ``lb`` trace category hooks the reroute callback) —
    in-process callers only, it is not picklable."""
    if topo_name not in TOPOS:
        raise ValueError(f"topo must be one of {TOPOS}")
    if workload not in WORKLOADS:
        raise ValueError(f"workload must be one of {WORKLOADS}")
    sim = Simulator()
    seeds = SeedSequenceFactory(seed)
    env: CcEnv = build_cc_env(cc, link_rate_gbps=link_rate_gbps, **cc_params)
    link = LinkSpec(rate_gbps=link_rate_gbps, prop_delay_ps=us(1.5))
    lb_config = make_lb_config(lb)
    if topo_name == "fattree":
        topo = fattree(
            sim,
            k=k,
            link=link,
            switch_config=env.switch_config,
            seeds=seeds,
            cnp_enabled=env.cnp_enabled,
            lb=lb_config,
        )
    else:
        topo = jellyfish(
            sim,
            n_switches=n_switches,
            switch_degree=switch_degree,
            hosts_per_switch=hosts_per_switch,
            link=link,
            switch_config=env.switch_config,
            seeds=seeds,
            cnp_enabled=env.cnp_enabled,
            lb=lb_config,
        )
    env.post_install(topo)
    collector = FctCollector(topo)

    if workload == "permutation":
        flows = permutation_flows(
            [h.host_id for h in topo.hosts], perm_flow_bytes, seeds
        )
    else:
        flows = PoissonWorkload(
            n_hosts=len(topo.hosts),
            host_rate_gbps=link_rate_gbps,
            cdf=websearch_cdf(scale=scale),
            load=load,
            seeds=seeds,
        ).generate(n_flows)
    if obs is not None:
        obs.attach(sim, topo, collector=collector)

    total = len(flows)
    with obs.guard(sim=sim, topo=topo) if obs is not None else nullcontext():
        launch_flows(topo, flows, env)
        drive_fct(
            sim, collector, total, max_horizon_ms,
            progress=obs.progress if obs is not None else None,
        )
    return LbCell((topo_name, workload, lb, cc), collector, total, sim, topo=topo)


def sweep_specs(
    lbs: Sequence[str] = LBS,
    ccs: Sequence[str] = CCS,
    topos: Sequence[str] = TOPOS,
    workloads: Sequence[str] = WORKLOADS,
    seeds: Sequence[int] = (1,),
    **kwargs,
) -> List[RunSpec]:
    """Emit one :class:`~repro.exec.RunSpec` per matrix cell × seed.

    Spec keys are ``(topo, workload, lb, cc, seed)`` in deterministic
    nesting order (seed outermost), so serial and pooled executions reduce
    to the same sequence.
    """
    specs: List[RunSpec] = []
    for seed in seeds:
        for topo_name in topos:
            for workload in workloads:
                for lb in lbs:
                    for cc in ccs:
                        specs.append(
                            RunSpec(
                                fn="repro.experiments.lbmatrix:run_lb_cell_summary",
                                kwargs=dict(
                                    lb=lb,
                                    cc=cc,
                                    topo_name=topo_name,
                                    workload=workload,
                                    **kwargs,
                                ),
                                key=(topo_name, workload, lb, cc, seed),
                                seed=seed,
                            )
                        )
    return specs


def run_lbmatrix(
    lbs: Sequence[str] = LBS,
    ccs: Sequence[str] = CCS,
    topos: Sequence[str] = TOPOS,
    workloads: Sequence[str] = WORKLOADS,
    seed: int = 1,
    jobs: int = 1,
    executor: Optional[SweepExecutor] = None,
    **kwargs,
) -> Dict[CellKey, LbCellSummary]:
    """The full (or any sliced) CC × LB × fabric × traffic sweep.

    Cells are independent runs, so they fan out over ``jobs`` worker
    processes; results reduce in matrix order either way, and the FCT
    fingerprints are byte-identical for any ``jobs`` (gated by
    ``tests/exec/test_parallel_determinism.py``).
    """
    specs = sweep_specs(
        lbs=lbs, ccs=ccs, topos=topos, workloads=workloads, seeds=(seed,), **kwargs
    )
    executor = executor or SweepExecutor(jobs=jobs)
    out: Dict[CellKey, LbCellSummary] = {}
    for result in executor.map(specs):
        out[result.value.key] = result.value
    return out


def format_matrix(cells: Dict[CellKey, object], column: str = "mean_fct_us") -> str:
    """One block per (topo, workload): LB rows × CC columns (cells may be
    :class:`LbCell` or :class:`LbCellSummary` — both expose the columns)."""
    lines = []
    groups: Dict[Tuple[str, str], Dict[Tuple[str, str], object]] = {}
    for (topo_name, workload, lb, cc), cell in cells.items():
        groups.setdefault((topo_name, workload), {})[(lb, cc)] = cell
    for (topo_name, workload), block in groups.items():
        ccs = sorted({cc for _, cc in block})
        lbs = sorted({lb for lb, _ in block})
        lines.append(f"\n{topo_name} / {workload} — {column}")
        lines.append(f"{'lb':>10} " + " ".join(f"{cc:>10}" for cc in ccs))
        for lb in lbs:
            row = []
            for cc in ccs:
                cell = block.get((lb, cc))
                v = getattr(cell, column) if cell else None
                row.append(f"{v:10.1f}" if v is not None else f"{'-':>10}")
            lines.append(f"{lb:>10} " + " ".join(row))
    return "\n".join(lines)


#: The reduced slice ``fncc-exp lbmatrix --quick`` (and CI) runs: the
#: pool path end to end — spawn, pickling, ordered reduce — in seconds.
QUICK_SLICE = dict(
    lbs=("ecmp", "spray"),
    ccs=("fncc",),
    topos=("fattree",),
    workloads=("permutation",),
)


def main(jobs: int = 1, seed: int = 1, quick: bool = False) -> None:
    slice_kw = QUICK_SLICE if quick else {}
    cells = run_lbmatrix(seed=seed, jobs=jobs, **slice_kw)
    print("CC × LB matrix (FCTs in µs; lower is better)")
    print(format_matrix(cells, "mean_fct_us"))
    print(format_matrix(cells, "p99_fct_us"))
    incomplete = {
        k: (c.completed, c.n_flows)
        for k, c in cells.items()
        if c.completed < c.n_flows
    }
    if incomplete:
        print("\ncells with stragglers (completed/total):")
        for k, (done, total) in incomplete.items():
            print(f"  {k}: {done}/{total}")
    perm = {
        k: c for k, c in cells.items() if k[0] == "fattree" and k[1] == "permutation"
    }
    if perm:
        print("\nfat-tree permutation, mean FCT vs ECMP (per CC):")
        for cc in sorted({k[3] for k in perm}):
            base = perm.get(("fattree", "permutation", "ecmp", cc))
            for lb in sorted({k[2] for k in perm} - {"ecmp"}):
                cell = perm.get(("fattree", "permutation", lb, cc))
                if base and cell:
                    gain = 100.0 * (base.mean_fct_us - cell.mean_fct_us) / base.mean_fct_us
                    print(f"  {cc:>6} {lb:>9}: {gain:+.1f}%")


if __name__ == "__main__":  # pragma: no cover
    main()
