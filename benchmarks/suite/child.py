"""The measuring child: one fresh interpreter per workload run, so import
cost and peak RSS belong to the workload.

Untraced (``--trace 0``): set-up, then back-to-back timed cells for
``--seconds`` (closed loop, one client), then one reference run that the
first cell's output must equal.  Traced (``--trace 1``): set-up, one
untraced and one traced run of the same cell, the workload's comparison
runs, optionally the layer kernels; spans are written as one JSON.

The last line of stdout is one JSON object for the harness.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import sys
import time
import traceback
from time import perf_counter

from benchmarks.suite import specs
from benchmarks.suite.trace import Spans


def _tree_cpu() -> float:
    """User+system CPU of this process and every child it has waited for.
    os.times() counts in clock ticks (10 ms), too coarse for this process's
    own share of a short cell."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    """Largest resident set of any process in this child's tree (Linux
    reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


#: Seconds one calibration loop takes on the reference box in its fast
#: state; adjusted figures read as if the whole run had been in that state.
CALIB_NOMINAL_S = 0.004
#: In the box's slow state the loop takes 1.7x as long and the simulator
#: 1.5x (log-log slope of cell time on loop time, measured over 100-200
#: back-to-back cells: incast 0.70, websearch 0.82), so a time is adjusted
#: by the loop's ratio to this power, not by the ratio itself.
CALIB_EXPONENT = 0.75


class _Slot:
    __slots__ = ("a", "b", "c")

    def __init__(self) -> None:
        self.a, self.b, self.c = 0, 1.0, None


def _calibration_loop() -> tuple:
    """A fixed interpreter-bound loop shaped like the simulator's own work
    (heap of wide integer keys, slotted attribute writes, dict hits);
    returns its (wall, CPU) seconds."""
    t0, c0 = perf_counter(), time.process_time()
    heap, table = [], {i: i for i in range(256)}
    objs = [_Slot() for _ in range(64)]
    push, pop = heapq.heappush, heapq.heappop
    for i in range(6000):
        o = objs[i & 63]
        o.a += 1
        o.b = o.b * 1.0000001 + 0.5
        o.c = o
        push(heap, ((((i * 7919) % 10007) << 64) | i, o))
        if i & 1:
            key, _o = pop(heap)
            o.a += table[key & 255]
    return perf_counter() - t0, time.process_time() - c0


def _adjust(loop_s: float) -> float:
    """Factor a throughput measured while the loop took ``loop_s`` is
    multiplied by (a time is divided by it)."""
    return (loop_s / CALIB_NOMINAL_S) ** CALIB_EXPONENT


def box_speed() -> tuple:
    """How fast this box is right now, as (wall, CPU) seconds of the best
    of three calibration loops.  The shared reference box moves between
    states up to 2x apart for a minute or more at a time, and the loop
    tracks them (README "Steadiness"): timing figures are adjusted by
    :func:`_adjust` so that runs taken in different states compare.  The
    loop is benchmark code, so a change to the simulator cannot move it."""
    loops = [_calibration_loop() for _ in range(3)]
    return min(w for w, _c in loops), min(c for _w, c in loops)


def _typical(rates) -> float:
    """A run's throughput from its cells' throughputs: the upper quartile.
    Interference on a shared box only ever slows a cell down, so the upper
    quartile of throughput (the lower quartile of cost per unit of work)
    sits closer to the undisturbed speed than the median does; measured
    over ten seeds it halved the run-to-run spread on the two-process
    workloads (README "Steadiness").  Unlike a maximum, a quantile's
    expectation does not grow with the number of cells a faster commit
    fits into --seconds."""
    if len(rates) == 1:
        return rates[0]
    return statistics.quantiles(rates, n=4)[2]


def _run_cell(impl, spec, seed, tr, flows) -> dict:
    """One timed cell, the collector quiesced outside the timed region.  A
    cell that raises, or whose output check fails, counts every flow it
    attempted as failed."""
    gc.collect()
    before = box_speed()
    c0, t0 = _tree_cpu(), perf_counter()
    try:
        with tr.span("suite.cell_s"):
            cell = impl.cell(spec, seed, tr)
    except Exception:
        return {"work": 0, "attempted": flows, "completed": 0, "wall": 0.0,
                "cpu": 0.0, "problems": [traceback.format_exc(limit=4)]}
    cell["wall"], cell["cpu"] = perf_counter() - t0, _tree_cpu() - c0
    after = box_speed()
    # Box speed during the cell: the mean of the readings on either side.
    cell["adjust_wall"] = _adjust((before[0] + after[0]) / 2)
    cell["adjust_cpu"] = _adjust((before[1] + after[1]) / 2)
    if cell["attempted"] != flows:
        cell["problems"].append(f"attempted {cell['attempted']} flows, spec says {flows}")
    if cell["problems"]:
        cell["completed"] = 0
    return cell


def _check_reference(impl, spec, seed, first, problems) -> None:
    try:
        expected = impl.reference(spec, seed, Spans(False))
    except Exception:
        problems.append("reference run raised: " + traceback.format_exc(limit=4))
        return
    if first.get(impl.witness) != expected:
        problems.append(f"cell 0 {impl.witness} differs from its reference run")


def measure(name, spec, shape, seed, seconds) -> dict:
    from benchmarks.suite.cells import IMPL

    impl = IMPL[name]
    flows = impl.flows(spec)
    off = Spans(False)
    cells = []
    t_start = perf_counter()
    while len(cells) < shape.max_cells and (
        len(cells) < shape.min_cells or perf_counter() - t_start < seconds
    ):
        cells.append(_run_cell(impl, spec, specs.sub_seed(seed, len(cells)), off, flows))
    problems = [p for c in cells for p in c["problems"]]
    if not problems:
        _check_reference(impl, spec, specs.sub_seed(seed, 0), cells[0], problems)
    good = [c for c in cells if c["work"] and c["wall"] > 0]
    rates = [c["work"] / c["wall"] * c["adjust_wall"] for c in good]
    metrics = {}
    if good:
        metrics = {
            "work_per_s": _typical(rates),
            "work_per_cpu_s": _typical(
                [c["work"] / c["cpu"] * c["adjust_cpu"] for c in good]
            ),
        }
    attempted = sum(c["attempted"] for c in cells)
    failed = attempted - sum(c["completed"] for c in cells)
    if problems:  # a failed reference check fails the cell it checked
        failed = max(failed, cells[0]["attempted"])
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "cells": len(cells),
            "cell_rates": rates,
            "box_speed_x": [round(1.0 / c["adjust_wall"], 3) for c in good],
            "measured_s": perf_counter() - t_start}


def trace(name, spec, shape, seed, seconds, run_kernels, spans_path) -> dict:
    from benchmarks.suite import layers
    from benchmarks.suite.cells import IMPL

    impl = IMPL[name]
    flows = impl.flows(spec)
    cell_seed = specs.sub_seed(seed, 0)
    t_start = perf_counter()

    plain = _run_cell(impl, spec, cell_seed, Spans(False), flows)
    tr = Spans(True)
    impl.trace(tr)
    tr.cell = 0
    try:
        traced = _run_cell(impl, spec, cell_seed, tr, flows)
    finally:
        tr.unwrap_all()
    problems = plain["problems"] + traced["problems"]
    if not problems and plain.get("digest") != traced.get("digest"):
        problems.append("tracing changed the cell's output")

    metrics = layers.zeros()
    if not problems:
        metrics.update(layers.from_cell(name, plain, traced, tr))
        extra, extra_problems = layers.comparisons(name, spec, cell_seed, plain)
        metrics.update(extra)
        problems += extra_problems
    if tr.missing:
        print(f"suite: names to wrap not found: {tr.missing}", file=sys.stderr)
    metrics["suite.missing_spans"] = len(tr.missing)
    if run_kernels:
        from benchmarks.suite import kernels

        budget = max(0.0, seconds - (perf_counter() - t_start)) * shape.kernel_share
        metrics.update(kernels.run_all(shape, budget))
    if spans_path:
        tr.dump(spans_path)
    failed = flows if problems else plain["attempted"] - plain["completed"]
    return {"metrics": metrics, "attempted": flows, "failed": failed,
            "problems": problems, "cells": 1,
            "measured_s": perf_counter() - t_start}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="benchmarks.suite.child")
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    ap.add_argument("--kernels", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.time() when the harness spawned this child")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    table, shape = (
        (specs.SMOKE, specs.SMOKE_SHAPE) if args.smoke else (specs.FULL, specs.FULL_SHAPE)
    )
    spec = table[args.workload]

    # Set-up: imports (the cells import repro lazily, so this pulls in
    # exactly what the workload uses) and one reduced warm-up cell.
    from benchmarks.suite.cells import IMPL

    import_s = 0.0
    if args.trace and not args.setup_only:
        from benchmarks.suite import layers

        import_s = layers.import_repro()
    t0 = perf_counter()
    IMPL[args.workload].warmup(specs.SMOKE[args.workload], Spans(False))
    warmup_s = perf_counter() - t0
    setup_s = (time.time() - args.spawned) / _adjust(box_speed()[0])
    if args.setup_only:
        out = {"setup_s": setup_s}
    elif args.trace:
        out = trace(args.workload, spec, shape, args.seed, args.seconds,
                    bool(args.kernels), args.spans)
        out["metrics"]["experiments.import_s"] = import_s
        out["metrics"]["suite.warmup_s"] = warmup_s
    else:
        out = measure(args.workload, spec, shape, args.seed, args.seconds)
        out["metrics"]["peak_rss_mb"] = _peak_rss_mb()
    out["setup_s"] = setup_s
    print(json.dumps(out))
    return 1 if out.get("problems") else 0


if __name__ == "__main__":
    raise SystemExit(main())
