"""One *cell* per workload: the unit of work a run repeats and times.

Every function here reaches the simulator through its public entry points
only (README "Pinned API").  A cell returns a plain dict:

``work``       deterministic units of simulated work (README "Metrics")
``attempted`` / ``completed``   flows
``digest``     hash of the FCT and PortStats fingerprints (the output check)
``problems``   output-check breaches found inside the cell
``sim``        simulated statistics of the FNCC run (slowdowns, pause frames)
``counts``     deterministic per-layer counts

``tr`` is a :class:`~benchmarks.suite.trace.Spans`; with tracing off its
spans are no-ops and nothing is patched.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from importlib import import_module

from benchmarks.suite.specs import ROOT

# Columns of a portstats_fingerprint row (repro.experiments.common).
_TX, _DROPS, _ECN = 2, 6, 7
_PAUSE_TX, _PAUSE_RX, _RESUME_TX, _RESUME_RX, _TRAIN = 8, 9, 10, 11, 13


def _digest(*parts) -> str:
    return hashlib.sha1(repr(parts).encode()).hexdigest()


def _sim_stats(slowdowns, pause_frames: int) -> dict:
    import numpy as np  # already loaded: every caller has just run repro

    p50, p95 = np.percentile(slowdowns, [50, 95])
    return {"slowdown_p50": float(p50), "slowdown_p95": float(p95),
            "pause_frames": pause_frames}


def _ledger_balanced(rows) -> bool:
    """Every PAUSE and RESUME frame sent was received by its peer."""
    return sum(r[_PAUSE_TX] for r in rows) == sum(r[_PAUSE_RX] for r in rows) and sum(
        r[_RESUME_TX] for r in rows
    ) == sum(r[_RESUME_RX] for r in rows)


class _PacketCells:
    """Folds the packet-engine runs of one cell (one per CC) into the cell
    dict: counts come from the PortStats rows, which are also the
    fingerprint, so what is counted is what is checked."""

    def __init__(self) -> None:
        self.cell = {
            "work": 0, "attempted": 0, "completed": 0, "problems": [],
            "sim": {}, "counts": {"sim.events": 0, "net.frame_hops": 0,
                                  "net.ecn_marked": 0, "net.drops": 0,
                                  "net.train_frames": 0},
        }
        self._parts = []

    def add(self, cc, fct_fp, rows, events, attempted, slowdowns) -> None:
        cell, counts = self.cell, self.cell["counts"]
        hops = sum(r[_TX] for r in rows)
        pauses = sum(r[_PAUSE_TX] for r in rows)
        cell["work"] += hops
        cell["attempted"] += attempted
        cell["completed"] += len(fct_fp)
        counts["sim.events"] += events
        counts["net.frame_hops"] += hops
        counts["net.ecn_marked"] += sum(r[_ECN] for r in rows)
        counts["net.drops"] += sum(r[_DROPS] for r in rows)
        counts["net.train_frames"] += sum(r[_TRAIN] for r in rows)
        counts[f"net.pause_frames.{cc}"] = pauses
        if len(fct_fp) != attempted:
            cell["problems"].append(f"{cc}: {attempted - len(fct_fp)} flows unresolved")
        if not _ledger_balanced(rows):
            cell["problems"].append(f"{cc}: PFC ledger tx != rx")
        if cc == "fncc":
            cell["sim"] = _sim_stats(slowdowns, pauses)
        self._parts.append((cc, fct_fp, rows))

    def done(self) -> dict:
        self.cell["digest"] = _digest(self._parts)
        return self.cell


# -- websearch_fattree ---------------------------------------------------------


def _fct_cell(tr, cc, seed, *, k, load, n_flows, scale, max_horizon_ms, workload="websearch"):
    """run_fct_experiment + summarize_fct_result, step by step so each
    step is a span.  Returns (fct fingerprint, portstats rows, events,
    flows attempted, slowdowns)."""
    from repro.experiments.common import launch_flows, portstats_fingerprint
    from repro.experiments.fct_experiment import (
        FctResult, build_fct_fabric, drive_fct, summarize_fct_result,
    )

    with tr.span("experiments.build_s"):
        fab = build_fct_fabric(
            cc, workload=workload, k=k, load=load, n_flows=n_flows,
            scale=scale, seed=seed,
        )
    with tr.span("experiments.launch_s"):
        launch_flows(fab.topo, fab.flows, fab.env)
    with tr.span("sim.run_s"):
        drive_fct(fab.sim, fab.collector, len(fab.flows), max_horizon_ms)
    with tr.span("metrics.reduce_s"):
        result = FctResult(
            cc, workload, fab.collector, fab.bins, len(fab.flows), fab.sim,
            topo=fab.topo,
        )
        summary = summarize_fct_result(result, seed)
        rows = portstats_fingerprint(fab.topo)
        slowdowns = [float(s) for s in fab.collector.slowdowns()]
    return (summary.fct_fingerprint(), rows, summary.events_dispatched,
            len(fab.flows), slowdowns)


def websearch_cell(spec, seed, tr) -> dict:
    acc = _PacketCells()
    for cc in spec.ccs:
        acc.add(cc, *_fct_cell(
            tr, cc, seed, k=spec.k, load=spec.load, n_flows=spec.n_flows,
            scale=spec.scale, max_horizon_ms=spec.max_horizon_ms,
        ))
    return acc.done()


def trace_fct_steps(tr) -> None:
    """Spans for the steps build_fct_fabric buries."""
    import repro.experiments.fct_experiment as fct_experiment
    from repro.traffic.generator import PoissonWorkload

    tr.wrap(fct_experiment, "fattree", "topo.build_s")
    # repro.topo re-exports the builder under the module's own name.
    tr.wrap(import_module("repro.topo.fattree"), "install_ecmp", "routing.install_s")
    tr.wrap(PoissonWorkload, "generate", "traffic.generate_s")


# -- incast_lasthop ------------------------------------------------------------


def incast_cell(spec, seed, tr) -> dict:
    from repro.experiments.common import (
        build_cc_env, launch_flows, portstats_fingerprint,
    )
    from repro.experiments.fct_experiment import drive_fct
    from repro.metrics.fct import FctCollector
    from repro.sim.engine import Simulator
    from repro.sim.rng import SeedSequenceFactory
    from repro.topo.base import LinkSpec
    from repro.topo.star import star
    from repro.traffic.generator import incast_flows
    from repro.units import us

    # The seed picks who receives and in which order the senders are
    # numbered; sizes and the sender count are the spec's.
    rng = random.Random(seed)
    hosts = list(range(spec.n_senders + 1))
    rng.shuffle(hosts)
    receiver, senders = hosts[0], hosts[1:]

    acc = _PacketCells()
    for cc in spec.ccs:
        with tr.span("experiments.build_s"):
            sim = Simulator()
            env = build_cc_env(
                cc, link_rate_gbps=spec.link_rate_gbps, pfc_xoff=spec.pfc_xoff
            )
            with tr.span("topo.build_s"):
                topo = star(
                    sim, spec.n_senders + 1,
                    link=LinkSpec(rate_gbps=spec.link_rate_gbps, prop_delay_ps=us(1.5)),
                    switch_config=env.switch_config,
                    seeds=SeedSequenceFactory(seed),
                    cnp_enabled=env.cnp_enabled,
                )
            env.post_install(topo)
            collector = FctCollector(topo)
            with tr.span("traffic.generate_s"):
                flows = incast_flows(senders, receiver, spec.flow_bytes)
        with tr.span("experiments.launch_s"):
            launch_flows(topo, flows, env)
        with tr.span("sim.run_s"):
            drive_fct(sim, collector, len(flows), spec.max_horizon_ms)
        with tr.span("metrics.reduce_s"):
            fct_fp = tuple(sorted((r.flow.flow_id, r.fct_ps) for r in collector.records))
            rows = portstats_fingerprint(topo)
            slowdowns = [float(s) for s in collector.slowdowns()]
        acc.add(cc, fct_fp, rows, sim.events_dispatched, len(flows), slowdowns)
    return acc.done()


def trace_star_steps(tr) -> None:
    tr.wrap(import_module("repro.topo.star"), "install_ecmp", "routing.install_s")


# -- hybrid_fluid_5k -----------------------------------------------------------


def hybrid_cell(spec, seed, tr) -> dict:
    from repro.experiments.common import portstats_fingerprint
    from repro.hybrid.backend import HybridConfig, run_fct_hybrid

    config = HybridConfig(
        threshold=spec.threshold, min_link_flows=spec.min_link_flows,
        congested_frac=spec.congested_frac, refine_rounds=spec.refine_rounds,
        mouse_bytes=spec.mouse_bytes, epoch_us=spec.epoch_us,
        bg_quantum_bytes=spec.bg_quantum_bytes,
    )
    with tr.span("hybrid.driver_s"):
        result = run_fct_hybrid(
            "fncc", workload="websearch", k=spec.k, load=spec.load,
            n_flows=spec.n_flows, scale=spec.scale, seed=seed, config=config,
        )
    with tr.span("metrics.reduce_s"):
        fct_fp = result.fct_fingerprint()
        # The packet tier ran only if something was demoted.
        rows = portstats_fingerprint(result.topo) if result.sim is not None else ()
        stats = result.stats
        pauses = sum(r[_PAUSE_TX] for r in rows)
        cell = {
            "work": len(fct_fp),
            "attempted": result.n_flows,
            "completed": len(fct_fp),
            "digest": _digest(fct_fp, rows),
            "problems": [],
            "sim": _sim_stats(result.slowdowns(), pauses),
            "counts": {
                "net.frame_hops": sum(r[_TX] for r in rows),
                "hybrid.demoted_flows": stats.get("demoted", 0),
                "hybrid.fluid_events": stats.get("fluid_events", 0),
                "hybrid.packet_events": stats.get("packet_events", 0),
                "hybrid.classify_events": stats.get("classify_events", 0),
            },
        }
    if len(fct_fp) != result.n_flows:
        cell["problems"].append(f"{result.n_flows - len(fct_fp)} flows unresolved")
    if not _ledger_balanced(rows):
        cell["problems"].append("PFC ledger tx != rx")
    return cell


def trace_hybrid_steps(tr) -> None:
    """run_fct_hybrid is one call; its phases are module-level names."""
    import repro.hybrid.backend as backend
    from repro.analysis.flowsim import FlowLevelSimulator

    trace_fct_steps(tr)
    tr.wrap(backend, "build_fct_fabric", "experiments.build_s")
    tr.wrap(backend, "launch_flows", "experiments.launch_s")
    tr.wrap(backend, "drive_fct", "hybrid.packet_s")

    def pass_name(args, kwargs):
        # Only the classification pass asks for congestion intervals.
        return "hybrid.classify_s" if kwargs.get("congestion") else "hybrid.fluid_s"

    tr.wrap(FlowLevelSimulator, "run", pass_name)


# -- cli_fig15_jobs2 -----------------------------------------------------------


def run_cli(args) -> str:
    """``python -m repro.experiments.runner <args>`` from spawn to exit;
    returns its stdout.  Non-zero exit raises."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=str(ROOT),
        capture_output=True, text=True, timeout=170.0,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"runner {' '.join(args)} exited {proc.returncode}: {proc.stderr[-400:]}"
        )
    return proc.stdout


def cli_cell(spec, seed, tr, jobs=None) -> dict:
    import ast

    jobs = spec.jobs if jobs is None else jobs
    with tr.span("experiments.cli_s"):
        stdout = run_cli([spec.experiment, "--jobs", str(jobs), "--seed", str(seed)])
    completed = 0
    for line in stdout.splitlines():
        if line.startswith("completed flows:"):
            completed = sum(ast.literal_eval(line.split(":", 1)[1].strip()).values())
    attempted = spec.n_flows * len(spec.ccs)
    cell = {
        "work": completed, "attempted": attempted, "completed": completed,
        "digest": _digest(stdout), "problems": [], "sim": {}, "counts": {},
    }
    if completed != attempted:
        cell["problems"].append(f"{attempted - completed} flows unresolved")
    return cell


# -- shard_fattree_2proc -------------------------------------------------------


def shard_cell(spec, seed, tr, process: bool = True) -> dict:
    from repro.shard import run_sharded_fct

    with tr.span("shard.driver_s"):
        result = run_sharded_fct(
            "fncc", shards=spec.shards, process=process, workload="websearch",
            k=spec.k, load=spec.load, n_flows=spec.n_flows, scale=spec.scale,
            seed=seed,
        )
    with tr.span("metrics.reduce_s"):
        fct_fp = result.fct_fingerprint()
        rows = result.portstats
        acc = _PacketCells()
        acc.add("fncc", fct_fp, rows, sum(result.events_by_shard.values()),
                result.n_flows, [rec[3] for rec in result.records])
        cell = acc.done()
        # train_frames legitimately differs from the serial engine's on cut
        # ports (tests/shard masks it); everything else must be identical.
        cell["serial_digest"] = _digest(fct_fp, [r[:_TRAIN] for r in rows])
        cell["counts"]["shard.boundary_frames"] = sum(
            b["exported"] for b in result.boundary.values()
        )
        in_flight = sum(b["in_flight"] for b in result.boundary.values())
        if in_flight:
            cell["problems"].append(f"{in_flight} boundary frames in flight at exit")
    return cell


def shard_serial_twin(spec, seed, tr) -> dict:
    """The same cell on the serial engine: the shard workload's reference
    for fingerprints, events and wall time."""
    fct_fp, rows, events, _n, _sd = _fct_cell(
        tr, "fncc", seed, k=spec.k, load=spec.load, n_flows=spec.n_flows,
        scale=spec.scale, max_horizon_ms=50.0,
    )
    return {"serial_digest": _digest(fct_fp, [r[:_TRAIN] for r in rows]),
            "events": events}


def trace_shard_steps(tr) -> None:
    """Coordinator-side spans of the process-backed group; time inside the
    workers is not visible from here (README "What the spans cannot see"),
    except that the first barrier waits for the slowest worker's import and
    fabric build."""
    import repro.experiments.fct_experiment as fct_experiment
    import repro.shard.drivers as drivers
    from repro.shard.runtime import ProcessShards

    trace_fct_steps(tr)
    tr.wrap(fct_experiment, "build_fct_fabric", "shard.plan_s")
    tr.wrap(ProcessShards, "__init__", "shard.spawn_s")
    tr.wrap(drivers, "run_sharded", "shard.coord_s")
    first_seen = set()

    def barrier_name(args, kwargs):
        if tr.cell in first_seen:
            return "shard.advance_s"
        first_seen.add(tr.cell)
        return "shard.worker_build_s"

    def horizon(row, args, result):
        quiet = not args[2] and not any(out for out, _done, _idle in result.values())
        row["empty"] = row.get("empty", 0) + quiet

    tr.wrap(ProcessShards, "advance_all", barrier_name, after=horizon)
    tr.wrap(ProcessShards, "collect_all", "shard.collect_s")
    tr.wrap(ProcessShards, "stop", "shard.stop_s")


# -- registry ------------------------------------------------------------------


class Workload:
    """What the measuring child needs to know about one workload.

    ``cell(spec, seed, tr)`` runs one cell; ``reference(spec, seed, tr)``
    returns the digest that cell's ``witness`` entry must equal (a second
    run of the same cell, or the path it is checked against);
    ``warmup(smoke_spec, tr)`` is the reduced cell that ends set-up;
    ``trace(tr)`` patches in the spans of buried steps; ``flows(spec)`` is
    the number of flows one cell attempts.
    """

    def __init__(self, cell, flows, *, reference=None, witness="digest",
                 warmup=None, trace=None) -> None:
        self.cell = cell
        self.flows = flows
        self.reference = reference or (lambda spec, seed, tr: cell(spec, seed, tr)["digest"])
        self.witness = witness
        self.warmup = warmup or (lambda spec, tr: cell(spec, 1, tr))
        self.trace = trace or (lambda tr: None)


IMPL = {
    "websearch_fattree": Workload(
        websearch_cell, lambda s: s.n_flows * len(s.ccs), trace=trace_fct_steps
    ),
    "incast_lasthop": Workload(
        incast_cell, lambda s: s.n_senders * len(s.ccs), trace=trace_star_steps
    ),
    "hybrid_fluid_5k": Workload(
        hybrid_cell, lambda s: s.n_flows, trace=trace_hybrid_steps
    ),
    "cli_fig15_jobs2": Workload(
        cli_cell, lambda s: s.n_flows * len(s.ccs),
        reference=lambda spec, seed, tr: cli_cell(spec, seed, tr, jobs=1)["digest"],
        warmup=lambda spec, tr: run_cli(["--list"]),
    ),
    "shard_fattree_2proc": Workload(
        shard_cell, lambda s: s.n_flows,
        reference=lambda spec, seed, tr: shard_serial_twin(spec, seed, tr)["serial_digest"],
        witness="serial_digest",
        warmup=lambda spec, tr: shard_cell(spec, 1, tr, process=False),
        trace=trace_shard_steps,
    ),
}
