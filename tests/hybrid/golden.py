"""Golden hybrid cells: the ``golden_hybrid`` and ``golden_trajectory``
tables of the identity store (``tools/golden.py``).

``golden_hybrid`` pins the hybrid backend's simulated output across
commits (ROADMAP aim 3): per cell, the FCT fingerprint, a digest of every
port counter, and the phase-stats dict.  Its slow ``strict_10k`` row is
DESIGN.md §6's 10k-flow recipe, whose 20k fluid events reach tie paths the
800-flow cells rarely do.  ``golden_trajectory`` pins the fluid engine one
level down: an FCT is rounded to integer picoseconds, so a waterfill rewrite
can move a rate by one ulp and still pass ``golden_hybrid``; the trajectory
digests every committed rate change, float finish time and congestion
interval of whole classification passes, recorded from the commit before
the waterfill kept only binding heap entries.  It is an identity pin: an
edit that moves it is dropped, not re-blessed.
"""

import hashlib
import random
from pathlib import Path
from unittest import mock

from repro.analysis import flowsim
from repro.analysis.flowsim import from_topology
from repro.experiments.common import portstats_fingerprint
from repro.experiments.fct_experiment import build_fct_fabric
from repro.hybrid.backend import HybridConfig, run_fct_hybrid
from tools.golden import Table

#: Diagnostics added after the table was first recorded; they describe how
#: the answer was computed, not the answer, so they sit outside the pin.
UNPINNED_STATS = ("fluid_passes", "bg_replay_entries")


def _strict_config() -> HybridConfig:
    # benchmarks/suite/specs.py's hybrid_fluid_5k config, restated so the
    # table does not move when the benchmark is retuned.
    return HybridConfig(
        threshold=0.99, min_link_flows=10, congested_frac=0.9, refine_rounds=0,
        mouse_bytes=0, epoch_us=200.0, bg_quantum_bytes=64 * 1518,
    )


def _coin_flip(seed: int):
    # Keyed by flow id, not drawn from one stream: the partition must not
    # depend on how often or in what order the backend asks.
    return lambda flow: random.Random(f"{seed}:{flow.flow_id}").random() < 0.5


def _strict(seed: int, n_flows=800, load=0.4):
    return lambda: run_fct_hybrid(
        "fncc", workload="websearch", k=8, load=load, n_flows=n_flows, scale=0.01,
        seed=seed, config=_strict_config(),
    )


def _refining():
    # DCQCN because only ECN marks / PFC pauses / drops trigger refinement,
    # and FNCC cells of this size produce none.  A refining cell that stops
    # refining pins nothing about refine rounds.
    result = run_fct_hybrid("dcqcn", workload="websearch", k=4, load=0.3, n_flows=60,
                            scale=0.3, seed=2, config=HybridConfig())
    assert result.stats["refine_rounds"] >= 1
    return result


#: name -> zero-argument runner.
CELLS = {
    "strict_1001": _strict(1001),
    "strict_1002": _strict(1002),
    "strict_1003": _strict(1003),
    "default_refining": _refining,
    "classify_fn_coin_flip": lambda: run_fct_hybrid(
        "fncc", workload="websearch", k=4, load=0.5, n_flows=30, scale=0.1,
        seed=2, classify_fn=_coin_flip(0),
    ),
}


def _sha1(value) -> str:
    # repr, not raw bytes: a float's repr is its shortest round-trip decimal
    # on every platform, so the digest does not depend on byte order.
    return hashlib.sha1(repr(value).encode()).hexdigest()


def observe(result) -> dict:
    """The pinned view of one hybrid :class:`FctResult`, JSON-shaped."""
    rows = portstats_fingerprint(result.topo) if result.sim is not None else ()
    return {
        "fct_fingerprint": [list(p) for p in result.fct_fingerprint()],
        "portstats_sha1": _sha1(rows),
        "stats": {
            k: v for k, v in sorted(result.stats.items()) if k not in UNPINNED_STATS
        },
    }


def _pass(seed, n_flows=800, load=0.4, rate_eps=flowsim.RATE_EPS, ripple_rounds=2, cap_entries=0):
    """One classification pass of a strict cell (the defaults are
    ``_strict``'s fabric and the hybrid's engine damping), run the way
    ``run_fct_hybrid`` runs it; ``rate_eps`` stands in for
    ``flowsim.RATE_EPS`` during the run, and ``cap_entries`` adds that many
    random capacity changes spread over the arrival span."""

    def run():
        fab = build_fct_fabric(
            "fncc", workload="websearch", k=8, load=load, n_flows=n_flows,
            scale=0.01, seed=seed,
        )
        fls, path_fn = from_topology(fab.topo)
        rng = random.Random(seed)
        wires = [(u, v) for u, v, _attrs in fab.topo.edges()]
        span = max(f.start_ps for f in fab.flows)
        sched = [
            (rng.randrange(span), rng.choice(wires)[:: rng.choice((1, -1))],
             rng.uniform(5.0, 100.0))
            for _ in range(cap_entries)
        ]
        with mock.patch.object(flowsim, "RATE_EPS", rate_eps):
            return fls.run(
                fab.flows, path_fn, congestion=(0.99, 10), keep_history=True,
                cap_schedule=sched, ripple_rounds=ripple_rounds,
            )

    return run


#: name -> zero-argument runner returning a ``FlowSimResult`` with history.
TRAJECTORY_CELLS = {
    "strict_1001": _pass(1001),
    "strict_1002": _pass(1002),
    "strict_1003": _pass(1003),
    "cap_schedule": _pass(1004, cap_entries=200),
    "exact_unbounded": _pass(1005, rate_eps=0.0, ripple_rounds=None),
    "flows_10k": _pass(1, n_flows=10_000, load=0.2),
}


def observe_trajectory(result) -> dict:
    """The pinned view of one fluid pass, JSON-shaped: digests of the three
    rate-history columns, of every flow's float finish time in completion
    order and of the congestion intervals, plus the event counters."""
    h = result.history
    return {
        "history_t": _sha1(list(h.t)),
        "history_flow": _sha1(list(h.flow)),
        "history_delta": _sha1(list(h.delta)),
        "finish": _sha1([(fid, w[1]) for fid, w in result.windows.items()]),
        "congestion": _sha1(sorted(result.congestion_intervals.items())),
        "n_events": result.n_events,
        "n_rate_changes": result.n_rate_changes,
        "n_waterfills": result.n_waterfills,
    }


def _observed(view, run):
    return lambda: view(run())


TABLES = (
    Table(
        Path(__file__).with_name("golden_hybrid.json"),
        rows={**{name: _observed(observe, run) for name, run in CELLS.items()},
              # Too large to keep whole: the digest of its FCT fingerprint.
              "strict_10k": _observed(lambda result: {"fct_sha1": _sha1(result.fct_fingerprint())},
                                      _strict(1, 10_000, load=0.2))},
        slow=frozenset({"strict_10k"}),
    ),
    Table(
        Path(__file__).with_name("golden_trajectory.json"),
        rows={name: _observed(observe_trajectory, run) for name, run in TRAJECTORY_CELLS.items()},
    ),
)
