"""Experiment harness: one module per data figure of the paper.

Each module exposes a ``run_*`` function returning a structured result and
a ``main()`` that prints the paper-style rows.  ``python -m
repro.experiments.runner --list`` enumerates them; DESIGN.md §1 records
the scale each figure is regenerated at and why the claim survives it,
§5.1 the shape every cell shares.
"""

from repro.experiments.common import (
    CcEnv,
    build_cc_env,
    launch_flows,
    MicrobenchResult,
    run_microbench,
    quick_dumbbell,
)

__all__ = [
    "CcEnv",
    "build_cc_env",
    "launch_flows",
    "MicrobenchResult",
    "run_microbench",
    "quick_dumbbell",
]
