"""Process-pool sweep execution for independent simulation runs.

Every experiment sweep in this repo — the CC × LB matrix, the Fig. 14/15
CC comparisons, the ablation parameter sweeps, multi-seed replications —
is embarrassingly parallel: each run owns its own :class:`Simulator`,
topology, RNG streams (via per-run :class:`~repro.sim.rng.SeedSequenceFactory`)
and packet pool, and nothing crosses run boundaries.  This package turns
that property into wall-clock speedup on multi-core hardware:

* :class:`RunSpec` — a picklable description of one run (a module-level
  callable or ``"module:qualname"`` string, kwargs, an optional seed).
* :class:`RunResult` — the portable outcome (value, wall time, worker pid,
  or a captured worker traceback).
* :class:`SweepExecutor` — fans specs out over a process pool
  (``jobs=N``; workers forked from the parent on Linux, spawned
  elsewhere: :func:`~repro.exec.executor.worker_context`) and reduces
  results in **spec order** regardless of completion order; ``jobs=1``
  executes in-process with zero pool overhead.  Serial and parallel executions of the same specs produce
  identical values (gated by ``tests/exec/``).

See DESIGN.md §5 (process model) for the picklability rules and why
simulator state never crosses a process boundary.
"""

from repro.exec.executor import SweepError, SweepExecutor, run_sweep
from repro.exec.spec import RunResult, RunSpec, resolve_callable

__all__ = [
    "RunSpec",
    "RunResult",
    "SweepExecutor",
    "SweepError",
    "run_sweep",
    "resolve_callable",
]
