"""The harness: one process that launches each workload in a fresh child
interpreter, one at a time, and reports what the children measured.

Three ways in:

* ``--workload W --seed N --seconds S --trace 0|1`` — one run, as the
  benchmark driver calls it; the last line of stdout is the result JSON.
* no ``--workload`` — a *set*: every workload untraced, then (``--trace
  1``) every workload traced and the layer kernels once; ``--out`` writes
  the set with its provenance block.
* ``--compare A.json B.json`` — two sets against the bounds in
  ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from benchmarks.suite import specs
from benchmarks.suite.specs import ROOT

OUT_DIR = ROOT / ".bench_out"
HELD_OUT_SEED = 7
CHILD_TIMEOUT_S = 170.0

#: Per-layer metrics that repeat exactly for a given seed: simulated
#: statistics and deterministic counts.  --compare requires them equal.
EXACT_PREFIXES = (
    "sim.events", "net.", "transport.", "experiments.slowdown_", "experiments.hadoop_",
    "hybrid.demoted", "hybrid.fluid_events", "hybrid.packet_events",
    "hybrid.classify_events", "hybrid.fluid_passes", "shard.horizons",
    "shard.boundary_frames", "shard.empty_horizon_frac", "shard.events_overhead_x",
    "exec.cells", "exec.result_pickle_kb", "suite.missing_spans",
)


def _child(workload, seed, seconds, trace, smoke, *extra) -> dict:
    """Run one child to completion and return its JSON.  The child's
    stderr passes through; a child that dies without a result raises."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    cmd = [
        sys.executable, "-m", "benchmarks.suite.child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--smoke", str(int(smoke)),
        "--spawned", repr(time.time()), *extra,
    ]
    proc = subprocess.run(
        cmd, env=env, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: child exited {proc.returncode} with no result")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, smoke, kernels=True) -> dict:
    """One driver-shaped run; returns the result object plus the suite's
    own bookkeeping under ``_info``."""
    manifest = specs.manifest()
    shape = specs.SMOKE_SHAPE if smoke else specs.FULL_SHAPE
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload}-seed{seed}.json"
        out = _child(workload, seed, seconds, 1, smoke,
                     "--kernels", str(int(kernels)), "--spans", str(spans))
        declared = manifest["per_layer"]
        setups = [out["setup_s"]]
    else:
        setups = [
            _child(workload, seed, seconds, 0, smoke, "--setup-only")["setup_s"]
            for _ in range(shape.n_setup - 1)
        ]
        out = _child(workload, seed, seconds, 0, smoke)
        setups.append(out["setup_s"])
        out["metrics"]["setup_s"] = statistics.median(setups)
        declared = manifest["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared}
    undeclared = sorted(set(out["metrics"]) - set(units))
    missing = sorted(set(units) - set(out["metrics"]))
    problems = list(out["problems"])
    if undeclared:
        problems.append(f"metrics not in BENCHMARK.json: {undeclared}")
    if missing:
        problems.append(f"metrics not measured: {missing}")
    return {
        "correct": not problems and out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": out["metrics"][name], "unit": units[name]}
            for name in units if name in out["metrics"]
        },
        "_info": {"problems": problems, "cells": out["cells"],
                  "cell_rates": out.get("cell_rates", []),
                  "box_speed_x": out.get("box_speed_x", []),
                  "setup_samples": len(setups), "measured_s": out["measured_s"]},
    }


def _print_metrics(title, metrics) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")


def _provenance(seed, seconds, smoke) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    load1 = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    if load1 > 0.5 * nproc:
        print(f"suite: warning: 1-min load {load1:.2f} > 0.5 x {nproc} cpus; "
              "timings will be noisy", file=sys.stderr)
    return {"git_rev": rev, "python": platform.python_version(),
            "cpu_count": nproc, "load1_at_start": load1, "seed": seed,
            "seconds": seconds, "smoke": smoke}


def run_set(seed, seconds, trace, smoke, out_path) -> int:
    t0 = time.perf_counter()
    from benchmarks.suite.kernels import KERNELS

    kernel_names = {k.name for k in KERNELS}
    result = {"schema": "suite-set/v1",
              "provenance": _provenance(seed, seconds, smoke),
              "workloads": {}, "kernels": {}}
    ok = True
    for i, name in enumerate(specs.WORKLOADS):
        entry = result["workloads"][name] = {}
        passes = [("end_to_end", 0)] + ([("per_layer", 1)] if trace else [])
        for key, traced in passes:
            # The kernels do not depend on the workload: once per set.
            run = run_workload(name, seed, seconds, traced, smoke, kernels=(i == 0))
            info = run.pop("_info")
            if traced:
                measured = {n: run["metrics"].pop(n) for n in kernel_names & set(run["metrics"])}
                if i == 0:
                    result["kernels"] = measured
                    _print_metrics("\nlayer kernels", measured)
            entry[key] = run["metrics"]
            entry[f"{key}_run"] = {k: run[k] for k in ("correct", "attempted", "failed")} | info
            _print_metrics(
                f"\n{name} [{key}; work unit = {specs.WORK_UNIT[name]}; "
                f"cells={info['cells']} setup_samples={info['setup_samples']}]",
                run["metrics"],
            )
            for p in info["problems"]:
                print(f"  PROBLEM: {p}", file=sys.stderr)
            ok = ok and run["correct"]
    result["provenance"]["harness_wall_s"] = time.perf_counter() - t0
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(result, fh, indent=1)
    print(f"\nsuite: {'ok' if ok else 'FAILED'} in "
          f"{result['provenance']['harness_wall_s']:.1f} s")
    return 0 if ok else 1


def compare(path_a, path_b) -> int:
    """Set B against set A: each end-to-end metric may be worse by at most
    its bound; simulated statistics and counts must be equal.  Kernels and
    phase times are printed by the runs and not judged here: they have no
    bound."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    bounds = {m["name"]: m for m in specs.manifest()["end_to_end"]}
    breaches = 0
    for name in specs.WORKLOADS:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, spec in bounds.items():
            va, vb = wa["end_to_end"][metric]["value"], wb["end_to_end"][metric]["value"]
            worse = (vb - va) / va if spec["better"] == "lower" else (va - vb) / va
            bad = worse > spec["bound"]
            breaches += bad
            print(f"{name:<22} {metric:<18} {va:>14.6g} {vb:>14.6g} "
                  f"{worse:>+8.1%} (bound {spec['bound']:.0%}) {'BREACH' if bad else 'ok'}")
        for metric, ma in wa.get("per_layer", {}).items():
            mb = wb.get("per_layer", {}).get(metric)
            if mb is None or not metric.startswith(EXACT_PREFIXES):
                continue
            if ma["value"] != mb["value"]:
                breaches += 1
                print(f"{name:<22} {metric:<40} {ma['value']!r} != {mb['value']!r} BREACH (exact)")
        for key in ("end_to_end_run", "per_layer_run"):
            for side, w in (("A", wa), ("B", wb)):
                if key in w and not w[key]["correct"]:
                    breaches += 1
                    print(f"{name:<22} {key} of set {side} was not correct BREACH")
    print(f"suite: {breaches} breach(es)")
    return 1 if breaches else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m benchmarks.suite",
        description="The repo benchmark: five workloads, end-to-end and per-layer metrics.",
    )
    ap.add_argument("--workload", choices=specs.WORKLOADS,
                    help="run one workload and end with the result JSON line; "
                    "without it, run the whole set")
    ap.add_argument("--seed", type=int, default=1,
                    help=f"input seed (default 1; {HELD_OUT_SEED} is the held-out seed)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run, spans written under .bench_out/")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one cell per run")
    ap.add_argument("--out", help="write the set as JSON (set mode)")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"suite: {ROOT / 'src' / 'repro'} not found: nothing to benchmark",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else specs.manifest()["run_seconds"]
    if args.workload is None:
        return run_set(args.seed, seconds, args.trace, args.smoke, args.out)

    run = run_workload(args.workload, args.seed, seconds, args.trace, args.smoke)
    info = run.pop("_info")
    _print_metrics(
        f"{args.workload} [work unit = {specs.WORK_UNIT[args.workload]}; "
        f"cells={info['cells']} setup_samples={info['setup_samples']}]",
        run["metrics"],
    )
    for p in info["problems"]:
        print(f"PROBLEM: {p}", file=sys.stderr)
    sys.stdout.flush()
    print(json.dumps(run))
    return 0 if run["correct"] else 1
