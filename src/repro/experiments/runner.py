"""CLI entry point: ``fncc-exp <figure> [options]`` regenerates one paper
figure's data; ``--list`` shows the catalogue (sweep-enabled experiments
are marked — those accept ``--jobs N`` process-pool fan-out and ``--seed``).
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from typing import Callable, Dict


# Experiment name -> module under repro.experiments (each exposes main()).
# Only the one asked for is imported: a figure's process pays for its own
# module graph, not for all fifteen (--list imports them all to read the
# signatures).
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
    "related-work": "related_work",
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
    "backend": (None, "does not take --backend; ignoring"),
    "trace": (None, "does not take --trace; ignoring"),
    "progress": (False, "does not take --progress; ignoring"),
}


def _accepted_options(fn: Callable[..., None]) -> set:
    """Which of the per-experiment options this main() accepts.  An
    experiment is 'sweep-enabled' iff its main takes ``jobs`` — the
    signature is the registry, so a new sweep-enabled experiment shows up
    in ``--list`` without touching this file."""
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins etc.
        return set()
    return set(_OPTIONS) & set(params)


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
        "--backend",
        choices=("packet", "flow", "hybrid"),
        default=None,
        help="simulation backend for experiments that support it (fig14/"
        "fig15): packet = discrete-event ground truth, flow = max-min "
        "fluid model, hybrid = packet/flow co-simulation (DESIGN.md §6)",
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
        parser.error("--jobs must be >= 1")

    if args.list or not args.experiment:
        for name in _MODULES:
            opts = _accepted_options(_experiment_main(name))
            marker = ""
            if "jobs" in opts:
                flags = "/".join(f"--{o}" for o in _OPTIONS if o in opts)
                marker = f"[sweep: {flags}]"
            print(f"{name:<14}{marker}")
        return 0
    if args.experiment not in _MODULES:
        print(f"unknown experiment {args.experiment!r}; use --list", file=sys.stderr)
        return 2
    fn = _experiment_main(args.experiment)
    opts = _accepted_options(fn)
    kwargs = {}
    for opt, (not_given, note) in _OPTIONS.items():
        value = getattr(args, opt)
        if value == not_given:
            continue  # main()'s own default applies (jobs: 1 in every main)
        if opt in opts:
            kwargs[opt] = value
        else:
            print(f"note: {args.experiment} {note}", file=sys.stderr)
    fn(**kwargs)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
