#!/usr/bin/env python
"""cProfile wrapper over the perf-harness scenarios.

Future perf PRs should start from data, not guesses: this runs any
:mod:`benchmarks.perf_harness` scenario under ``cProfile`` and prints the
top functions by *cumulative* and by *internal* (tottime) cost.

Usage::

    python tools/profile.py --scenario fig14_websearch --top 25
    python tools/profile.py --scenario fig9_micro --sort tottime
    python tools/profile.py --scenario sweep --jobs 1 --out fig14.pstats

Caveats baked into the output header:

* cProfile charges a fixed overhead per *function call*, so call-heavy
  code looks relatively more expensive than it is on the plain
  interpreter (CPython 3.11 calls are cheap).  Treat the ranking as a
  map, confirm any conclusion with an A/B wall-clock measurement
  (``tools/bench.py``) before optimizing.
* The profiled run uses the same fixed seeds as the bench harness, after
  one untimed warmup, so the profile corresponds to the recorded
  trajectory numbers.

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


def main(argv=None) -> int:
    # Import late so --help works even on a broken checkout.
    from benchmarks.perf_harness import JOBS_SCENARIOS, OBS_SCENARIOS, SCENARIOS

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario",
        default="fig14_websearch",
        choices=sorted(SCENARIOS),
        help="perf_harness scenario to profile",
    )
    parser.add_argument("--top", type=int, default=25, help="rows per view")
    parser.add_argument(
        "--sort",
        choices=("both", "cumulative", "tottime"),
        default="both",
        help="which ranking(s) to print",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep-capable scenarios (subprocess "
        "work is invisible to cProfile; use --jobs 1 to see it in-process)",
    )
    parser.add_argument(
        "--no-warmup",
        action="store_true",
        help="skip the untimed warmup run (profiles cold-start costs too)",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="attach a telemetry bundle (metrics registry + event tracer) "
        "to obs-capable scenarios and print its registry snapshot and top "
        "trace categories alongside the profile",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also dump raw pstats to this file (for snakeviz & friends)",
    )
    args = parser.parse_args(argv)

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    fn = SCENARIOS[args.scenario]
    kwargs = {"jobs": args.jobs} if args.scenario in JOBS_SCENARIOS else {}
    bundle = None
    if args.obs:
        if args.scenario not in OBS_SCENARIOS:
            parser.error(
                f"--obs: {args.scenario} takes no obs bundle (capable: "
                f"{sorted(OBS_SCENARIOS)})"
            )
        from benchmarks.perf_harness import make_obs

        # categories=None: every trace category, including the per-ack
        # ``cc`` hook — a profile wants the full event picture, and its
        # wall-clock is already distorted by cProfile anyway.
        bundle = kwargs["obs"] = make_obs(args.scenario, categories=None)
    if not args.no_warmup:
        fn(**kwargs)  # imports, routing tables, allocator steady state

    prof = cProfile.Profile()
    prof.enable()
    fn(**kwargs)
    prof.disable()

    print(
        f"# scenario={args.scenario} jobs={args.jobs}\n"
        "# NOTE: cProfile inflates per-call overhead; confirm findings with\n"
        "# tools/bench.py wall-clock A/Bs before optimizing.\n"
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
    if bundle is not None:
        import json

        print("== registry snapshot (profiled run) ==")
        print(json.dumps(bundle.snapshot(), indent=2, sort_keys=True))
        if bundle.tracer is not None:
            print("== top trace categories ==")
            for cat, n in bundle.tracer.top_categories():
                print(f"  {cat:>8}: {n}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
