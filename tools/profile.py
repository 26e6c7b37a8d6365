#!/usr/bin/env python
"""cProfile over one cell of a repo-benchmark workload.

Future perf PRs should start from data, not guesses: this profiles the
exact cell whose rate the repo benchmark reports as ``work_per_s`` —
``IMPL[name].cell(FULL[name], sub_seed(1, 0), Spans(False))`` from
:mod:`benchmarks.suite` (cell 0 of ``--seed 1``, after the same reduced
warm-up cell the measuring child runs) — and prints the top functions by
*cumulative* and by *internal* (tottime) cost.  The scenario definitions
are the suite's; this file holds none of its own.

Usage::

    python tools/profile.py --workload websearch_fattree --top 25
    python tools/profile.py --workload incast_lasthop --sort tottime
    python tools/profile.py --workload hybrid_fluid_5k --out hybrid.pstats
    python tools/profile.py --workload incast_lasthop --opcodes

``--opcodes`` counts instead of timing: it runs the workload's *smoke*
cell under ``sys.settrace`` with ``f_trace_opcodes`` and prints executed
bytecode instructions per unit of work, in total and per function.  The
count is exact and repeats run to run, so it answers "did this edit
remove interpreter work" on a box whose clock swings 1.5x within minutes;
it says nothing about what an instruction costs (a call is one opcode),
so the benchmark still judges the gain.

Only the workloads whose cell runs in this process are offered:
``cli_fig15_jobs2`` and ``shard_fattree_2proc`` do their work in child
processes, which cProfile cannot see.

cProfile charges a fixed overhead per *function call*, so call-heavy code
looks relatively more expensive than it is on the plain interpreter
(CPython 3.11 calls are cheap).  Treat the ranking as a map, and confirm
any conclusion with paired runs of the benchmark (DESIGN.md §7) before
optimizing.

Works both installed and from a bare checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

# This file is named profile.py, which would shadow the stdlib ``profile``
# module that ``cProfile`` imports internally — scrub the script directory
# (sys.path[0] when run as ``python tools/profile.py``) before touching
# the profiler machinery.
_HERE = str(Path(__file__).resolve().parent)
sys.path[:] = [p for p in sys.path if p not in ("", _HERE)]

import argparse  # noqa: E402
import cProfile  # noqa: E402
import pstats  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
for p in (REPO_ROOT / "src", REPO_ROOT):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

WORKLOADS = ("websearch_fattree", "incast_lasthop", "hybrid_fluid_5k")


def count_opcodes(fn):
    """Run ``fn()`` with per-opcode tracing on; returns its result and a
    ``{code object: executed opcodes}`` dict over every python frame it
    entered."""
    counts: dict = {}

    def local(frame, event, _arg):
        if event == "opcode":
            code = frame.f_code
            counts[code] = counts.get(code, 0) + 1
        return local

    def on_call(frame, _event, _arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    sys.settrace(on_call)
    try:
        result = fn()
    finally:
        sys.settrace(None)
    return result, counts


def print_opcodes(workload: str, cell: dict, counts: dict, top: int) -> None:
    work, total = cell["work"], sum(counts.values())
    print(
        f"# workload={workload} (smoke cell) work={work} "
        f"completed={cell['completed']}/{cell['attempted']}\n"
        f"# executed opcodes: {total} total, {total / work:.1f} per unit of work\n"
    )
    print(f"== top {top} functions by executed opcodes ==")
    print(f"{'opcodes':>10} {'per work':>9} {'share':>6}  function")
    rows = sorted(
        counts.items(),
        key=lambda kv: (-kv[1], kv[0].co_filename, kv[0].co_firstlineno),
    )
    for code, n in rows[:top]:
        # co_qualname is 3.11+; the supported floor is 3.9.
        name = getattr(code, "co_qualname", code.co_name)
        try:
            where = Path(code.co_filename).resolve().relative_to(REPO_ROOT)
        except ValueError:
            where = Path(code.co_filename).name
        print(
            f"{n:>10} {n / work:>9.1f} {n / total:>6.1%}  "
            f"{where}:{code.co_firstlineno}({name})"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload",
        default="websearch_fattree",
        choices=WORKLOADS,
        help="benchmark workload whose cell to profile",
    )
    parser.add_argument("--top", type=int, default=25, help="rows per view")
    parser.add_argument(
        "--sort",
        choices=("both", "cumulative", "tottime"),
        default="both",
        help="which ranking(s) to print",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also dump raw pstats to this file (for snakeviz & friends)",
    )
    parser.add_argument(
        "--opcodes",
        action="store_true",
        help="count executed bytecode instructions of the smoke cell "
        "instead of timing the full one (exact and repeatable)",
    )
    args = parser.parse_args(argv)

    # Import late so --help works even on a broken checkout.
    from benchmarks.suite.cells import IMPL
    from benchmarks.suite.specs import FULL, SMOKE, sub_seed
    from benchmarks.suite.trace import Spans

    impl, off = IMPL[args.workload], Spans(False)
    impl.warmup(SMOKE[args.workload], off)  # imports, allocator steady state

    if args.opcodes:
        cell, counts = count_opcodes(
            lambda: impl.cell(SMOKE[args.workload], sub_seed(1, 0), off)
        )
        print_opcodes(args.workload, cell, counts, args.top)
        return 1 if cell["problems"] else 0

    prof = cProfile.Profile()
    prof.enable()
    cell = impl.cell(FULL[args.workload], sub_seed(1, 0), off)
    prof.disable()

    print(
        f"# workload={args.workload} work={cell['work']} "
        f"completed={cell['completed']}/{cell['attempted']}\n"
        "# NOTE: cProfile inflates per-call overhead; confirm findings with\n"
        "# paired benchmark runs (DESIGN.md §7) before optimizing.\n"
    )
    views = (
        ("cumulative", "tottime")
        if args.sort == "both"
        else (args.sort,)
    )
    stats = pstats.Stats(prof)
    for view in views:
        print(f"== top {args.top} by {view} ==")
        stats.sort_stats(view).print_stats(args.top)
    if args.out is not None:
        stats.dump_stats(args.out)
        print(f"raw pstats written to {args.out}")
    return 1 if cell["problems"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
