"""CLI entry point: ``fncc-exp <figure> [options]`` regenerates one paper
figure's data; ``--list`` shows the catalogue (sweep-enabled experiments
are marked — those accept ``--jobs N`` process-pool fan-out and ``--seed``).
"""

from __future__ import annotations

import argparse
import ast
import importlib
import os
import sys
from typing import Callable, Dict


# Experiment name -> module under repro.experiments (each exposes main()).
# Only the one asked for is imported: a figure's process pays for its own
# module graph, not for every figure module's, and --list imports none (it
# reads each main()'s parameters from the module's source).
_MODULES: Dict[str, str] = {
    "fig1a": "fig1_hw_trends",
    "fig1": "fig1_queue_motivation",
    "fig3": "fig3_pause_frames",
    "fig9": "fig9_microbench",
    "fig13": "fig13_congestion_location",
    "fig13e": "fig13_fairness",
    "fig14": "fig14_websearch",
    "fig15": "fig15_hadoop",
    "headline": "headline",
    "lbmatrix": "lbmatrix",
    "faultmatrix": "faultmatrix",
    "ablations": "ablations",
    "theory": "theory",
    "paper-scale": "paper_scale",
}


def _experiment_main(name: str) -> Callable[..., None]:
    return importlib.import_module(f"repro.experiments.{_MODULES[name]}").main


# Per-experiment option -> (the parsed value that means "not given", what
# the note says when the experiment's main() has no such parameter).  The
# order is the order of the ``--list`` markers and of the notes.
_OPTIONS = {
    "jobs": (1, "is not sweep-enabled; ignoring --jobs"),
    "seed": (None, "does not take --seed; ignoring"),
    "quick": (False, "has no --quick slice; ignoring"),
    "trace": (None, "does not take --trace; ignoring"),
    "progress": (False, "does not take --progress; ignoring"),
}


def _accepted_options(name: str) -> set:
    """Which of the per-experiment options this experiment's main()
    accepts, read from ``def main`` in its module's source without
    importing it.  An experiment is 'sweep-enabled' iff its main takes
    ``jobs`` — the signature is the registry, so a new sweep-enabled
    experiment shows up in ``--list`` without touching this file."""
    path = os.path.join(os.path.dirname(__file__), f"{_MODULES[name]}.py")
    with open(path, encoding="utf-8") as f:
        source = f.read()
    # Parse from ``def main`` on: the module above it is not needed, and
    # parsing all of it would make --list's reading of every signature
    # four times as slow.
    start = source.find("\ndef main(")
    if start < 0:
        raise LookupError(f"repro.experiments.{_MODULES[name]} defines no main()")
    a = ast.parse(source[start:], path).body[0].args
    params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
    return set(_OPTIONS) & {p.arg for p in params if p is not None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fncc-exp",
        description="Regenerate the FNCC paper's figures on the simulator.",
    )
    parser.add_argument("experiment", nargs="?", help="figure id (see --list)")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep-enabled experiments (see --list); "
        "1 = in-process, results are identical for any value",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="root seed passthrough (default: the experiment's own default)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced slice for experiments that support it (see --list)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON (chrome://tracing / Perfetto) "
        "of the run to PATH, for experiments that support it; includes the "
        "metrics-registry snapshot under otherData.registry",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print wall-clock heartbeats (sim-time, events/s, flows, ETA) "
        "to stderr during long runs, for experiments that support it",
    )
    args = parser.parse_args(argv)

    if args.jobs < 1:
        # census: --jobs below 1 — tests/experiments/test_harness.py::TestRunnerCli::test_bad_jobs_rejected
        parser.error("--jobs must be >= 1")
    if args.seed is not None and not 0 <= args.seed < 2**63:
        # SeedSequenceFactory's rule, checked before any cell runs.
        # census: a seed outside 63 bits — tests/experiments/test_harness.py::TestRunnerCli::test_bad_seed_rejected_before_any_cell
        parser.error("--seed must be a non-negative 63-bit integer")

    if args.list or not args.experiment:
        for name in _MODULES:
            opts = _accepted_options(name)
            marker = ""
            if "jobs" in opts:
                flags = "/".join(f"--{o}" for o in _OPTIONS if o in opts)
                marker = f"[sweep: {flags}]"
            print(f"{name:<14}{marker}")
        return 0
    # census: an unknown experiment — tests/experiments/test_harness.py::TestRunnerCli::test_unknown_experiment
    if args.experiment not in _MODULES:
        print(f"unknown experiment {args.experiment!r}; use --list", file=sys.stderr)
        return 2
    opts = _accepted_options(args.experiment)
    if "trace" in opts and args.trace is not None:
        folder = os.path.dirname(os.path.abspath(args.trace))
        if not os.path.isdir(folder):
            # census: a trace into a missing directory — tests/experiments/test_harness.py::TestRunnerCli::test_trace_into_a_missing_directory_rejected_before_any_cell
            parser.error(f"--trace: directory {folder} does not exist")
    kwargs = {}
    for opt, (not_given, note) in _OPTIONS.items():
        value = getattr(args, opt)
        if value == not_given:
            continue  # main()'s own default applies (jobs: 1 in every main)
        if opt in opts:
            kwargs[opt] = value
        else:
            # census: an option the experiment does not take — tests/experiments/test_harness.py::TestRunnerCli::test_jobs_on_non_sweep_experiment_noted_and_ignored
            print(f"note: {args.experiment} {note}", file=sys.stderr)
    _experiment_main(args.experiment)(**kwargs)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
