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

from typing import Dict, Mapping, Sequence, Tuple

from repro.experiments.common import Fabric, build_fabric, sweep
from repro.experiments.fct_experiment import FctResult, launch_and_drive
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

#: The matrix fabrics and traffic, shared with ``faultmatrix``: a k=4
#: fat-tree or an 8-switch Jellyfish, 100 G links, 300 KB permutation
#: elephants, WebSearch at 50 % load with sizes x0.1, a 20 ms kill horizon.
K = 4
JELLYFISH = dict(n_switches=8, switch_degree=4, hosts_per_switch=2)
LINK_RATE_GBPS = 100.0
PERM_FLOW_BYTES = 300 * KB
LOAD, SCALE = 0.5, 0.1
MAX_HORIZON_MS = 20.0

#: A cell key: (topo, workload, lb, cc).
CellKey = Tuple[str, str, str, str]


def make_lb_config(lb: str) -> LbConfig:
    """The strategy a matrix column runs: flowlet with the matrix's own
    idle gap, the others at their defaults."""
    if lb == "flowlet":
        return LbConfig("flowlet", gap_ps=us(15))
    if lb == "conweave":
        return LbConfig("conweave")
    if lb == "spray":
        return LbConfig("spray")
    return LbConfig("ecmp")


def build_matrix_cell(
    cc: str,
    lb: str,
    topo_name: str,
    workload: str,
    seed: int,
    perm_flow_bytes: int,
    n_flows: int,
    cc_params: Mapping[str, object],
    **fabric_kw,
) -> Fabric:
    """One matrix cell, built and not launched: ``topo_name`` under the
    ``lb`` column's strategy, and its flows — one ``perm_flow_bytes`` flow
    per host for the permutation (``n_flows`` is not read), ``n_flows``
    WebSearch arrivals otherwise.  ``fabric_kw`` (the fault cell's
    ``transport_config``) and ``cc_params`` go to :func:`build_fabric`."""
    if topo_name not in TOPOS:
        raise ValueError(f"topo must be one of {TOPOS}")
    if workload not in WORKLOADS:
        raise ValueError(f"workload must be one of {WORKLOADS}")
    if topo_name == "fattree":
        builder, topo_kw = fattree, dict(k=K)
    else:
        builder, topo_kw = jellyfish, JELLYFISH
    fab = build_fabric(
        cc, builder, topo_kw, seed=seed, link_rate_gbps=LINK_RATE_GBPS,
        lb=make_lb_config(lb), **fabric_kw, **cc_params,
    )
    if workload == "permutation":
        flows = permutation_flows(
            [h.host_id for h in fab.topo.hosts], perm_flow_bytes, fab.seeds
        )
    else:
        flows = PoissonWorkload(
            n_hosts=len(fab.topo.hosts),
            host_rate_gbps=LINK_RATE_GBPS,
            cdf=websearch_cdf(scale=SCALE),
            load=LOAD,
            seeds=fab.seeds,
        ).generate(n_flows)
    return fab._replace(flows=flows)


def run_lb_cell(
    lb: str,
    cc: str,
    topo_name: str = "fattree",
    workload: str = "permutation",
    seed: int = 1,
    perm_flow_bytes: int = PERM_FLOW_BYTES,
    n_flows: int = 100,
    obs=None,
    **cc_params,
) -> FctResult:
    """Run one (topo, workload, lb, cc) cell and collect FCTs (unbinned:
    the matrix reads whole-cell statistics).

    Module-level with data-only arguments, so it is also the spec target of
    :func:`run_lbmatrix` — byte-identical in-process and in a pool
    worker, forked or spawned.  ``obs`` optionally attaches a
    :class:`repro.obs.RunObservability` bundle to the cell (registry reads
    the LB reroute/probe counters at snapshot time; the ``lb`` trace
    category hooks the reroute callback) — in-process callers only, it is
    not picklable."""
    fab = build_matrix_cell(
        cc, lb, topo_name, workload, seed, perm_flow_bytes, n_flows, cc_params
    )
    launch_and_drive(fab, MAX_HORIZON_MS, obs=obs)
    return FctResult(cc, workload, fab.collector, (), len(fab.flows), fab.sim, topo=fab.topo)


def run_lbmatrix(
    lbs: Sequence[str] = LBS,
    ccs: Sequence[str] = CCS,
    topos: Sequence[str] = TOPOS,
    workloads: Sequence[str] = WORKLOADS,
    seed: int = 1,
    jobs: int = 1,
    **kwargs,
) -> Dict[CellKey, FctResult]:
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
        **kwargs,
    )


def format_matrix(cells: Dict[CellKey, object], column: str = "mean_fct_us") -> str:
    """One block per (topo, workload): LB rows × CC columns of one
    :class:`FctResult` statistic."""
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
#: pool path end to end — worker start, pickling, ordered reduce — in
#: seconds.
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
