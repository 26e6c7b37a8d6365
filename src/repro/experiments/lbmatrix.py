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

from typing import Dict, Optional, Sequence, Tuple

from repro.exec import SweepExecutor
from repro.experiments.common import FctCell, build_fabric, sweep
from repro.experiments.fct_experiment import launch_and_drive
from repro.lb import LbConfig
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
) -> FctCell:
    """Run one (topo, workload, lb, cc) cell and collect FCTs.

    Module-level with data-only arguments, so it is also the spec target of
    :func:`run_lbmatrix` — byte-identical in-process and in a spawned
    worker.  ``obs`` optionally attaches a
    :class:`repro.obs.RunObservability` bundle to the cell (registry reads
    the LB reroute/probe counters at snapshot time; the ``lb`` trace
    category hooks the reroute callback) — in-process callers only, it is
    not picklable."""
    if topo_name not in TOPOS:
        raise ValueError(f"topo must be one of {TOPOS}")
    if workload not in WORKLOADS:
        raise ValueError(f"workload must be one of {WORKLOADS}")
    if topo_name == "fattree":
        builder, topo_kw = fattree, dict(k=k)
    else:
        builder, topo_kw = jellyfish, dict(
            n_switches=n_switches,
            switch_degree=switch_degree,
            hosts_per_switch=hosts_per_switch,
        )
    fab = build_fabric(
        cc, builder, topo_kw, seed=seed, link_rate_gbps=link_rate_gbps,
        lb=make_lb_config(lb), **cc_params,
    )
    if workload == "permutation":
        flows = permutation_flows(
            [h.host_id for h in fab.topo.hosts], perm_flow_bytes, fab.seeds
        )
    else:
        flows = PoissonWorkload(
            n_hosts=len(fab.topo.hosts),
            host_rate_gbps=link_rate_gbps,
            cdf=websearch_cdf(scale=scale),
            load=load,
            seeds=fab.seeds,
        ).generate(n_flows)
    launch_and_drive(fab, flows, max_horizon_ms, obs=obs)
    return FctCell((topo_name, workload, lb, cc), seed, fab, len(flows))


def run_lbmatrix(
    lbs: Sequence[str] = LBS,
    ccs: Sequence[str] = CCS,
    topos: Sequence[str] = TOPOS,
    workloads: Sequence[str] = WORKLOADS,
    seed: int = 1,
    jobs: int = 1,
    executor: Optional[SweepExecutor] = None,
    **kwargs,
) -> Dict[CellKey, FctCell]:
    """The full (or any sliced) CC × LB × fabric × traffic sweep.

    Cells are independent runs, so they fan out over ``jobs`` worker
    processes; results reduce in matrix order either way, and the FCT
    fingerprints are byte-identical for any ``jobs`` (gated by
    ``tests/exec/test_parallel_determinism.py``).
    """
    return sweep(
        "repro.experiments.lbmatrix:run_lb_cell",
        dict(topo_name=topos, workload=workloads, lb=lbs, cc=ccs),
        seed=seed,
        jobs=jobs,
        executor=executor,
        **kwargs,
    )


def format_matrix(cells: Dict[CellKey, object], column: str = "mean_fct_us") -> str:
    """One block per (topo, workload): LB rows × CC columns of one
    :class:`FctCell` statistic."""
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
