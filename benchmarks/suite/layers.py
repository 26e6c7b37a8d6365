"""Per-layer metrics of one traced run: deterministic counts, phase self
times, and the comparison runs (``--jobs 1``, in-process pool, serial
engine) that turn a workload's wall time into a statement about one layer.

``BENCHMARK.json`` is the one list of metric names; a name a workload has
nothing to say about is reported as 0.
"""

from __future__ import annotations

import pickle
from time import perf_counter

from benchmarks.suite.cells import cli_cell, shard_serial_twin
from benchmarks.suite.specs import manifest
from benchmarks.suite.trace import Spans

# Spans reported under another metric's name; every other span is reported
# under its own.
_FOLDED = {
    "shard.plan_s": "shard.build_s",
    "shard.spawn_s": "shard.build_s",
    "shard.worker_build_s": "shard.build_s",
    "shard.collect_s": "shard.teardown_s",
    "shard.stop_s": "shard.teardown_s",
}


def zeros() -> dict:
    return {m["name"]: 0.0 for m in manifest()["per_layer"]}


def from_cell(name: str, plain: dict, traced: dict, tr: Spans) -> dict:
    """Counts and simulated statistics from the untraced run of the cell,
    self times from the traced run of the same cell."""
    counts = plain["counts"]
    hops = counts.get("net.frame_hops", 0)
    m = {
        "suite.run_s": plain["wall"],
        "suite.cpu_s": plain["cpu"],
        "suite.flows_per_s": plain["completed"] / plain["wall"],
        "suite.frame_hops_per_s": hops / plain["wall"],
        "suite.trace_overhead_x": traced["wall"] / plain["wall"],
        "suite.box_speed_x": 1.0 / plain["adjust_wall"],
        "transport.flows_failed": plain["attempted"] - plain["completed"],
    }
    sim = plain["sim"]
    if sim:
        m["experiments.slowdown_p50"] = sim["slowdown_p50"]
        m["experiments.slowdown_p95"] = sim["slowdown_p95"]
        m["net.pause_frames.fncc"] = sim["pause_frames"]
    known = zeros()
    m.update({k: v for k, v in counts.items() if k in known})
    if hops:
        m["sim.events_per_hop"] = counts.get("sim.events", 0) / hops
        m["net.train_frac"] = counts.get("net.train_frames", 0) / hops

    selfs = tr.self_times(0)
    cell_s = tr.rows_named(0, "suite.cell_s")[0]["dur"]
    m["suite.unattributed_frac"] = selfs.pop("suite.cell_s") / cell_s
    for span, own in selfs.items():
        metric = _FOLDED.get(span, span)
        m[metric] = m.get(metric, 0.0) + own

    passes = tr.rows_named(0, "hybrid.classify_s") + tr.rows_named(0, "hybrid.fluid_s")
    if passes:
        m["hybrid.fluid_passes"] = sum(r["n"] for r in passes)
    barriers = tr.rows_named(0, "shard.worker_build_s") + tr.rows_named(0, "shard.advance_s")
    if barriers:
        horizons = sum(r["n"] for r in barriers)
        m["shard.horizons"] = horizons
        m["shard.empty_horizon_frac"] = sum(r.get("empty", 0) for r in barriers) / horizons
        m["shard.us_per_horizon"] = (
            1e6 * (m["shard.advance_s"] + m["shard.coord_s"]) / horizons
        )
    return m


def comparisons(name: str, spec, seed: int, plain: dict) -> tuple:
    """Extra runs of the traced cell's inputs down another path; returns
    (metrics, output-check problems)."""
    if name == "cli_fig15_jobs2":
        return _cli_comparisons(spec, seed, plain)
    if name == "shard_fattree_2proc":
        return _shard_comparisons(spec, seed, plain)
    return {}, []


def _shard_comparisons(spec, seed, plain) -> tuple:
    t0 = perf_counter()
    twin = shard_serial_twin(spec, seed, Spans(False))
    serial_s = perf_counter() - t0
    m = {
        "shard.speedup_x": serial_s / plain["wall"],
        "shard.events_overhead_x": plain["counts"]["sim.events"] / twin["events"],
    }
    problems = []
    if twin["serial_digest"] != plain["serial_digest"]:
        problems.append("sharded fingerprints differ from the serial engine's")
    return m, problems


def _cli_comparisons(spec, seed, plain) -> tuple:
    from repro.exec import RunSpec, SweepExecutor
    from repro.experiments.fig15_hadoop import run_fig15, short_flow_p95_reduction

    class Recording(SweepExecutor):
        def map(self, specs):
            t0 = perf_counter()
            self.results = super().map(specs)
            self.wall = perf_counter() - t0
            return self.results

    problems = []
    t0 = perf_counter()
    jobs1 = cli_cell(spec, seed, Spans(False), jobs=1)
    wall1 = perf_counter() - t0
    if jobs1["digest"] != plain["digest"]:
        problems.append("--jobs 2 stdout differs from --jobs 1")

    # The same three cells through the pool, in this process: what the CLI
    # adds on top is interpreter start, imports and printing.
    pool = Recording(jobs=spec.jobs)
    summaries = run_fig15(seed=seed, executor=pool)
    busy = {}
    for r in pool.results:
        busy[r.pid] = busy.get(r.pid, 0.0) + r.wall_s
    worker_busy = max(busy.values())
    gains = short_flow_p95_reduction(summaries)
    fncc = summaries["fncc"]
    hops = sum(s.frame_hops for s in summaries.values())
    events = sum(s.events_dispatched for s in summaries.values())

    # Pool start + worker import, with no simulation: two specs so the
    # executor does not fall back to in-process.
    idle = Recording(jobs=spec.jobs)
    idle.map([RunSpec(fn="repro.experiments.fct_experiment:WORKLOADS.__len__")] * 2)

    m = {
        "exec.pool_speedup_x": wall1 / plain["wall"],
        "exec.cells": len(pool.results),
        "exec.result_pickle_kb": sum(len(pickle.dumps(r.value)) for r in pool.results) / 1024.0,
        "exec.worker_busy_s": worker_busy,
        "exec.map_overhead_s": pool.wall - worker_busy,
        "exec.spawn_s": idle.wall,
        "experiments.cli_overhead_s": plain["wall"] - pool.wall,
        "experiments.hadoop_p95_gain_vs_hpcc_pct": gains.get("hpcc", 0.0),
        "experiments.hadoop_p95_gain_vs_dcqcn_pct": gains.get("dcqcn", 0.0),
        "experiments.slowdown_p50": fncc.table.aggregate("median") or 0.0,
        "experiments.slowdown_p95": fncc.table.aggregate("p95") or 0.0,
        "sim.events": events,
        "net.frame_hops": hops,
        "sim.events_per_hop": events / hops,
        "suite.frame_hops_per_s": hops / plain["wall"],
    }
    if sum(s.completed() for s in summaries.values()) != plain["completed"]:
        problems.append("in-process pool and CLI completed different flow counts")
    return m, problems


def import_repro() -> float:
    """Seconds ``fncc-exp --list`` spends in this process: every experiment
    module, numpy and networkx included.  Only meaningful before anything
    else has imported them."""
    import contextlib
    import io

    t0 = perf_counter()
    from repro.experiments.runner import main

    with contextlib.redirect_stdout(io.StringIO()):
        main(["--list"])
    return perf_counter() - t0
