"""Paper-scale cross-validation via the flow-level simulator.

Packet-level Python cannot reach the §5.5 configuration (k=8, 128 hosts,
thousands of WebSearch flows at full size) in reasonable time, but the
max-min flow-level model (:mod:`repro.analysis.flowsim`) can.  This
experiment runs the *same* workload at k=4-packet scale and k=8-flow scale
and reports both, demonstrating that the scaled packet experiments and the
full-scale fluid model agree on the workload shape (which size bins hurt,
roughly how big the tail is) — the justification for DESIGN.md's scaling
substitution.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.flowsim import from_topology
from repro.metrics.fct import SIZE_BINS_WEBSEARCH, SlowdownTable
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequenceFactory
from repro.topo.fattree import fattree
from repro.traffic.distributions import websearch_cdf
from repro.traffic.generator import PoissonWorkload


def run_flow_level(
    k: int = 8,
    n_flows: int = 2000,
    load: float = 0.5,
    scale: float = 1.0,
    seed: int = 1,
) -> SlowdownTable:
    """WebSearch at ``load`` on a k-ary fat-tree, flow-level model."""
    sim = Simulator()
    seeds = SeedSequenceFactory(seed)
    topo = fattree(sim, k=k, seeds=seeds)
    fls, path_fn = from_topology(topo)
    flows = PoissonWorkload(
        n_hosts=len(topo.hosts),
        host_rate_gbps=100.0,
        cdf=websearch_cdf(scale=scale),
        load=load,
        seeds=seeds,
    ).generate(n_flows)
    result = fls.run(flows, path_fn)
    bins = [round(b * scale) for b in SIZE_BINS_WEBSEARCH]
    return SlowdownTable.from_records(result.records, bins)


def run_paper_scale(seed: int = 1, jobs: int = 1) -> Dict[str, SlowdownTable]:
    """Both scales are independent runs; :class:`SlowdownTable` is already
    portable, so they fan directly over the sweep executor."""
    from repro.exec import RunSpec, SweepExecutor

    specs = [
        RunSpec(
            fn="repro.experiments.paper_scale:run_flow_level",
            kwargs=dict(k=8, n_flows=2000, scale=1.0),
            key="flow-level k=8 full-size (2000 flows)",
            seed=seed,
        ),
        RunSpec(
            fn="repro.experiments.paper_scale:run_flow_level",
            kwargs=dict(k=4, n_flows=2000, scale=0.1),
            key="flow-level k=4 scaled x0.1 (2000 flows)",
            seed=seed,
        ),
    ]
    return {r.key: r.value for r in SweepExecutor(jobs=jobs).map(specs)}


def main(jobs: int = 1, seed: int = 1) -> None:
    tables = run_paper_scale(seed=seed, jobs=jobs)
    print("Paper-scale cross-validation (max-min flow-level model)")
    for name, table in tables.items():
        counts = table.row_counts()
        pops = [b for b in table.bins if counts[b] > 0]
        p95s = [table.stat(b, "p95") for b in pops]
        print(f"\n{name}:")
        print(f"  flows binned: {sum(counts.values())}, overall p95 "
              f"{table.aggregate('p95'):.2f}, overall avg {table.aggregate('average'):.2f}")
        print("  p95 by bin: " + " ".join(f"{v:.1f}" for v in p95s))
    t_full = tables["flow-level k=8 full-size (2000 flows)"]
    t_scaled = tables["flow-level k=4 scaled x0.1 (2000 flows)"]
    corr = shape_correlation(t_full, t_scaled)
    print(f"\nrank correlation of per-bin p95 between the two scales: {corr:.2f}")


def shape_correlation(a: SlowdownTable, b: SlowdownTable) -> float:
    """Spearman rank correlation of per-bin p95 slowdowns between two
    tables (bins compared positionally)."""
    try:
        from scipy.stats import spearmanr
    except ImportError as exc:
        raise ImportError(
            "paper-scale's rank correlation needs scipy: pip install '.[analysis]'"
        ) from exc

    xs, ys = [], []
    for ba, bb in zip(a.bins, b.bins):
        sa, sb = a.stat(ba, "p95"), b.stat(bb, "p95")
        if sa is not None and sb is not None:
            xs.append(sa)
            ys.append(sb)
    if len(xs) < 3:
        return float("nan")
    rho = spearmanr(xs, ys).statistic
    return float(rho)


if __name__ == "__main__":  # pragma: no cover
    main()
