"""The fault-profile × CC × LB robustness matrix (``fncc-exp faultmatrix``).

DESIGN.md §10: every cell runs the fat-tree permutation scenario with a
:class:`repro.faults.FaultPlan` armed against it — no faults, a hard
agg↔core link failure, a flap train, or a gray-loss window — crossed with
the CC schemes and load-balancing strategies.  The questions each column
answers:

* **Recovery** — with per-flow ECMP a downed core link blackholes the
  flows whose hash pinned them to it (the core's downward path into a pod
  is single-homed); they must degrade to the flow-failed terminal state,
  never hang.  Adaptive strategies (flowlet, conweave) reroute around the
  failure and finish.
* **Determinism** — identical seed + identical plan reproduce identical
  FCT fingerprints for every cell, serial or pooled (the plan is
  picklable; all draws come from the topology seed factory).

Every cell reports ``completed / failed / hung``; ``hung`` must be zero —
that is the graceful-degradation acceptance bar, asserted by
``tests/faults`` and checked in CI via ``--quick``.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.experiments.common import sweep
from repro.experiments.fct_experiment import FctResult, launch_and_drive
from repro.experiments.lbmatrix import (
    LINK_RATE_GBPS,
    MAX_HORIZON_MS,
    PERM_FLOW_BYTES,
    build_matrix_cell,
)
from repro.faults import FaultInjector, FaultPlan
from repro.transport.sender import TransportConfig
from repro.units import us

PROFILES = ("none", "linkdown", "flap", "grayloss", "switchfail")
LBS = ("ecmp", "flowlet", "conweave")
CCS = ("dcqcn", "hpcc", "fncc")

#: Transport hardening: a 300 us retransmission timeout, and a flow fails
#: after seven consecutive ones.
RTO_US = 300
RTO_BUDGET = 7

#: A cell key: (profile, lb, cc).
CellKey = Tuple[str, str, str]


def build_fault_profile(profile: str, topo, active_ps: int) -> FaultPlan:
    """Expand a profile name into a concrete :class:`FaultPlan` against a
    fat-tree: the victim is the first agg↔core uplink of pod 0 (the
    ConWeave-style asymmetry scenario).  ``active_ps`` is the expected
    busy period of the workload — fault timing scales with it (not the
    kill-horizon) so the fault always lands mid-transfer."""
    if profile == "none":
        return FaultPlan.noop()
    victim_agg = "agg_0_0"
    victim_core = next(
        n for n in topo.adj[victim_agg] if n.startswith("core")
    )
    t10 = active_ps // 10
    plan = FaultPlan(f"profile-{profile}")
    if profile == "linkdown":
        # Hard failure at 10% of the horizon, never restored.
        plan.link_down(victim_agg, victim_core, at_ps=t10)
    elif profile == "flap":
        plan.link_flap(
            victim_agg,
            victim_core,
            start_ps=t10,
            flaps=3,
            down_ps=t10,
            up_ps=t10,
            jitter_ps=t10 // 4,
        )
    elif profile == "grayloss":
        # 2% unidirectional silent loss on the uplink for 40% of the run.
        plan.gray_loss(
            victim_agg, victim_core, start_ps=t10, end_ps=5 * t10, prob=0.02
        )
    elif profile == "switchfail":
        # Fail-stop the victim core: flows pinned through it partition and
        # must reach flow-failed.
        plan.switch_fail(victim_core, at_ps=t10)
    else:
        raise ValueError(f"profile must be one of {PROFILES}, got {profile!r}")
    return plan


def count_failed(topo, completed_ids=()) -> int:
    """Flows that reached the flow-failed terminal state (senders with
    ``failed`` set — see repro.transport.sender) and did **not** complete.
    The exclusion matters: a sender can exhaust its RTO budget spuriously
    under extreme congestion while its retransmissions still land, so the
    receiver completes the flow anyway — that flow counts as completed."""
    done = frozenset(completed_ids)
    n = 0
    for host in topo.hosts:
        for qp in getattr(host, "senders", {}).values():
            if getattr(qp, "failed", False) and qp.flow.flow_id not in done:
                n += 1
    return n


def run_fault_cell(
    profile: str,
    lb: str = "ecmp",
    cc: str = "fncc",
    seed: int = 1,
    **cc_params,
) -> FctResult:
    """Run one (profile, lb, cc) cell: the LB matrix's fat-tree
    permutation cell with the profile's fault plan armed and transport
    hardening on (RTO with capped exponential backoff;
    :data:`RTO_BUDGET` timeouts → flow-failed).  Module-level with data-only
    arguments: also :func:`run_faultmatrix`'s spec target, byte-identical
    in-process or in a pool worker."""
    # A fresh config per cell: install_lb writes into topo.transport_config.
    hardening = TransportConfig(
        retx_timeout_ps=us(RTO_US),
        retx_backoff_cap=3,
        retx_max_timeouts=RTO_BUDGET,
    )
    fab, flows = build_matrix_cell(
        cc, lb, "fattree", "permutation", seed, PERM_FLOW_BYTES, 0, cc_params,
        transport_config=hardening,
    )
    topo, collector = fab.topo, fab.collector
    # Expected busy period: ~3x the per-flow serialization time (the
    # permutation is full-bisection, so congestion stretches ideal FCT by
    # a small factor) — faults anchored here hit live traffic.
    active_ps = round(PERM_FLOW_BYTES * 8000 / LINK_RATE_GBPS) * 3
    plan = build_fault_profile(profile, topo, active_ps)
    injector = FaultInjector(plan).arm(fab.sim, topo, seeds=fab.seeds)

    def failed() -> int:
        return count_failed(topo, (r.flow.flow_id for r in collector.records))

    launch_and_drive(
        fab, flows, MAX_HORIZON_MS, resolved=lambda: collector.completed() + failed()
    )
    result = FctResult(
        cc, "permutation", collector, (), len(flows), fab.sim, topo=topo, failed=failed()
    )
    result.stats = dict(injector.counters)
    return result


def run_faultmatrix(
    profiles: Sequence[str] = PROFILES,
    lbs: Sequence[str] = LBS,
    ccs: Sequence[str] = CCS,
    seed: int = 1,
    jobs: int = 1,
    **kwargs,
) -> Dict[CellKey, FctResult]:
    """The fault matrix, fanned out over ``jobs`` workers; fingerprints
    are byte-identical for any ``jobs`` (plans are picklable and all
    draws are seed-derived)."""
    return sweep(
        "repro.experiments.faultmatrix:run_fault_cell",
        dict(profile=profiles, lb=lbs, cc=ccs),
        seed=seed,
        jobs=jobs,
        **kwargs,
    )


def format_matrix(cells: Dict[CellKey, object]) -> str:
    lines = [
        f"{'profile':>11} {'lb':>9} {'cc':>6} {'done':>5} {'fail':>5} "
        f"{'hung':>5} {'mean_us':>9} {'p99_us':>9}"
    ]
    for key in sorted(cells):
        c = cells[key]
        profile, lb, cc = key
        lines.append(
            f"{profile:>11} {lb:>9} {cc:>6} {c.completed():>5} {c.failed:>5} "
            f"{c.hung:>5} {c.mean_fct_us:>9.1f} {c.p99_fct_us:>9.1f}"
        )
    return "\n".join(lines)


#: The reduced slice CI runs (``fncc-exp faultmatrix --quick``): the
#: zero-perturbation anchor plus one hard-failure cell.
QUICK_SLICE = dict(
    profiles=("none", "linkdown"),
    lbs=("ecmp",),
    ccs=("fncc",),
)


def main(jobs: int = 1, seed: int = 1, quick: bool = False) -> None:
    slice_kw = QUICK_SLICE if quick else {}
    cells = run_faultmatrix(seed=seed, jobs=jobs, **slice_kw)
    print("fault profile × LB × CC (done/fail/hung; FCTs in µs)")
    print(format_matrix(cells))
    hung = {k: c.hung for k, c in cells.items() if c.hung}
    if hung:
        print("\nFAIL: cells with hung flows (graceful degradation broken):")
        for k, n in hung.items():
            print(f"  {k}: {n} hung")
        raise SystemExit(1)
    print("\nall cells resolved every flow (completed or flow-failed)")


if __name__ == "__main__":  # pragma: no cover
    main()
