"""Experiment harness: one module per data figure of the paper.

Each module exposes a ``run_*`` function returning a structured result and
a ``main()`` that prints the paper-style rows.  ``python -m
repro.experiments.runner --list`` enumerates them; DESIGN.md §1 records
the scale each figure is regenerated at and why the claim survives it,
§5.1 the shape every cell shares.
"""

from repro import _lazy_exports

# Resolved on first access: ``import repro.experiments.runner`` (and so
# ``fncc-exp --list``) loads no simulator module.
__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.experiments.common": (
            "CcEnv",
            "build_cc_env",
            "launch_flows",
            "MicrobenchResult",
            "run_microbench",
            "quick_dumbbell",
        ),
    },
)
