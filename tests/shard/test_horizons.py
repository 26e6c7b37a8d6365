"""The horizon rule: skipping dead time changes how many barriers a run
takes and nothing else.

``run_sharded`` is compared with :func:`run_every_window` — the same
stop checks, one barrier per window, no skipping — on whole collect
payloads (FCT records, every PortStats counter, the PFC ledger, event
counts), and with the serial engine through the merged results.
"""

import pytest

from repro.experiments.common import run_microbench
from repro.experiments.fct_experiment import run_fct_experiment
from repro.shard.drivers import ShardedFctResult, ShardedMicrobenchResult
from repro.shard.partition import dumbbell_plan, fattree_plan
from repro.shard.runtime import (
    InProcessShards,
    ProcessShards,
    aligned_window,
    build_engine,
    run_sharded,
)
from repro.sim.engine import Simulator
from repro.topo.fattree import fattree_wiring
from repro.units import KB, MB, MS, us

from test_identity import cut_ports, masked, serial_rows, serial_series

FCT_KW = dict(workload="websearch", k=4, load=0.5, n_flows=40, scale=0.1, seed=1)
#: Two short elephants that overlap under a tight XOFF (PAUSE/RESUME cross
#: the cut), then a long tail in which only the sparse samplers tick.
DUMBBELL_KW = dict(
    flow_size_bytes=2 * MB, stagger_us=100.0, sample_us=20.0, pfc_xoff=50 * KB
)


class Counting:
    """A shard group that records the horizons it was advanced to."""

    def __init__(self, group) -> None:
        self.group = group
        self.horizons = []

    def advance_all(self, horizon, inbound):
        self.horizons.append(horizon)
        return self.group.advance_all(horizon, inbound)

    def __getattr__(self, name):
        return getattr(self.group, name)


def run_every_window(group, plan, end, chunk_ps=None):
    """Reference coordinator: a barrier at every window-grid point, with
    ``run_sharded``'s stop checks."""
    window = aligned_window(plan.lookahead_ps, chunk_ps)
    pending, t = {}, 0
    while t < end:
        t = min(t + window, end)
        results = group.advance_all(t, pending)
        pending = {}
        for sid, (out, _done, _next_ps) in results.items():
            for dest, batch in out.items():
                pending.setdefault(dest, {})[sid] = batch
        if chunk_ps is not None and t % chunk_ps == 0:
            if sum(done for _out, done, _next_ps in results.values()) >= group.target:
                break
            if not pending and all(r[2] is None for r in results.values()):
                break
    return t


def make_group(build, plan, process=False):
    if process:
        return ProcessShards(build, plan)
    return InProcessShards(
        [build_engine(build, plan.to_dict(), sid) for sid in range(plan.n_shards)]
    )


def drive(runner, build, plan, process=False, **run_kw):
    group = Counting(make_group(build, plan, process))
    try:
        end = runner(group, plan, **run_kw)
        return group.collect_all(), end, group.horizons
    finally:
        group.stop()


def assert_on_grid(horizons, window, stops):
    assert horizons == sorted(set(horizons))
    assert all(h % window == 0 or h in stops for h in horizons)


@pytest.mark.parametrize(
    "n_shards, process", [(2, False), (4, False), (2, True)],
    ids=["2-inproc", "4-inproc", "2-process"],
)
def test_fattree_skipping_equals_every_window_equals_serial(n_shards, process):
    build = {
        "fn": "repro.shard.builders:build_fct_shard",
        "kwargs": dict(FCT_KW, cc="fncc"),
    }
    plan = fattree_plan(fattree_wiring(Simulator(), k=4), n_shards)
    chunk, horizon = MS // 2, 50 * MS
    skipped, end, horizons = drive(
        run_sharded, build, plan, process, chunk_ps=chunk, max_horizon_ps=horizon
    )
    stepped, end_ref, every = drive(
        lambda g, p: run_every_window(g, p, horizon, chunk), build, plan
    )
    assert skipped == stepped
    assert end == end_ref
    # Engagement guard: the dead tail before the stop check was skipped,
    # and every horizon is one the reference also stops at.
    assert len(horizons) < len(every)
    assert set(horizons) <= set(every)
    assert_on_grid(horizons, aligned_window(plan.lookahead_ps, chunk), {end})

    serial = run_fct_experiment("fncc", **FCT_KW)
    sharded = ShardedFctResult(plan, skipped, end)
    assert sharded.fct_fingerprint() == serial.fct_fingerprint()
    cuts = cut_ports(serial.topo, plan)
    assert masked(sharded.portstats, cuts) == masked(serial_rows(serial), cuts)


def test_dumbbell_pfc_crossing_skipping_equals_every_window_equals_serial():
    duration = us(700.0)
    build = {
        "fn": "repro.shard.builders:build_microbench_shard",
        "kwargs": dict(DUMBBELL_KW, cc="fncc"),
    }
    plan = dumbbell_plan(run_microbench("fncc", duration_us=0.0).topo, 2)
    skipped, end, horizons = drive(run_sharded, build, plan, until=duration)
    stepped, end_ref, every = drive(
        lambda g, p: run_every_window(g, p, duration), build, plan
    )
    assert skipped == stepped
    assert end == end_ref == duration
    assert len(horizons) < len(every)
    assert_on_grid(horizons, plan.lookahead_ps, {duration})

    serial = run_microbench("fncc", duration_us=700.0, **DUMBBELL_KW)
    sharded = ShardedMicrobenchResult(plan, skipped, end)
    assert serial.pause_frames > 0
    assert sharded.pfc["pause_sent"] == sharded.pfc["pause_received"] > 0
    assert sharded.series_fingerprint() == serial_series(serial)
    cuts = cut_ports(serial.topo, plan)
    assert masked(sharded.portstats, cuts) == masked(serial_rows(serial), cuts)


def test_horizon_never_passes_a_stop_check_or_the_end():
    """Idle shards from the start: one barrier per stop check."""

    class Idle:
        target = None

        def __init__(self):
            self.horizons = []

        def advance_all(self, horizon, inbound):
            self.horizons.append(horizon)
            return {0: ({}, 0, None), 1: ({}, 0, None)}

    plan = fattree_plan(fattree_wiring(Simulator(), k=4), 2)
    group = Idle()
    # Completion-driven, nothing pending anywhere: stops at the first check.
    assert run_sharded(group, plan, chunk_ps=MS // 2, max_horizon_ps=MS) == MS // 2
    window = aligned_window(plan.lookahead_ps, MS // 2)
    assert group.horizons == [window, MS // 2]
    # Fixed horizon: the first window (nothing is known yet), then the end.
    group = Idle()
    assert run_sharded(group, plan, until=us(100.0)) == us(100.0)
    assert group.horizons == [plan.lookahead_ps, us(100.0)]
