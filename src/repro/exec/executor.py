"""The process-pool sweep executor.

``SweepExecutor(jobs=N).map(specs)`` runs every :class:`~repro.exec.spec.RunSpec`
and returns one :class:`~repro.exec.spec.RunResult` per spec **in spec
order**, regardless of which worker finished first — the reduce step is
deterministic by construction, so a sweep's output never depends on pool
scheduling.

Design points:

* ``jobs=1`` (the default) never touches ``multiprocessing``: specs run
  in-process, in order, with zero pool/pickling overhead, and neither
  ``multiprocessing`` nor ``concurrent.futures.process`` is imported —
  only the pool path (:meth:`SweepExecutor._map_pool`,
  :func:`worker_context`) imports them (pinned by
  ``tests/test_import_budget.py``).  This is the fallback every experiment
  uses when invoked without ``--jobs``.
* ``jobs>1`` uses :class:`concurrent.futures.ProcessPoolExecutor` on the
  context :func:`worker_context` picks: on Linux, from a single-threaded
  parent, workers are **forked** from the process that has already
  imported ``repro`` and start warm; anywhere else they are spawned fresh
  interpreters that import this package and the module of the spec's
  ``fn`` (DESIGN.md §5.4 has the rule and the per-process cost).  Either
  way a run's whole object graph is born in the worker from its spec —
  nothing the parent built is read — which is the isolation the
  determinism guarantee relies on.  A dead worker raises
  ``BrokenProcessPool`` instead of hanging the pool.
* A spec that raises inside a worker surfaces the *original traceback*
  (captured as text in the worker, re-raised here as :class:`SweepError`)
  — not a bare ``RemoteTraceback`` or a hung pool.
* Specs and results are checked for picklability with clear attribution
  (which spec, which direction) before the stdlib machinery can produce
  its less helpful errors — on fork too, so a sweep that runs on Linux
  runs under spawn.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
import traceback
from typing import Any, Iterable, List, Optional, Sequence

from repro.exec.spec import RunResult, RunSpec


def worker_context():
    """The ``multiprocessing`` context every worker the simulator starts
    uses — the sweep pool's and the shard group's.

    Fork when the platform is Linux and this process runs one thread:
    the worker starts with ``repro`` already imported.  Spawn otherwise:
    forking a multi-threaded process can deadlock the child (CPython
    >= 3.12 warns), Windows has no fork, and macOS system libraries are
    not fork-safe.  Decided at each call, from what the process looks
    like then; there is no option.
    """
    import multiprocessing as mp
    import threading

    fork = sys.platform == "linux" and threading.active_count() == 1
    return mp.get_context("fork" if fork else "spawn")


class SweepError(RuntimeError):
    """A sweep spec failed (or could not be shipped to / from a worker).

    ``key``/``index`` locate the failing spec; ``worker_traceback`` holds
    the failure text — the formatted traceback captured in the worker, or
    the submission-side explanation for a spec that never reached one
    (e.g. an unpicklable spec).
    """

    def __init__(self, message: str, key: Any = None, index: int = -1,
                 worker_traceback: str = "") -> None:
        super().__init__(message)
        self.key = key
        self.index = index
        self.worker_traceback = worker_traceback


def _execute(index: int, spec: RunSpec) -> RunResult:
    """Run one spec, converting any exception into a portable traceback."""
    key = spec.key if spec.key is not None else index
    t0 = time.perf_counter()
    try:
        value = spec.run()
    except Exception:
        return RunResult(
            key=key,
            index=index,
            error=traceback.format_exc(),
            wall_s=time.perf_counter() - t0,
            pid=os.getpid(),
        )
    return RunResult(
        key=key,
        index=index,
        value=value,
        wall_s=time.perf_counter() - t0,
        pid=os.getpid(),
    )


def _pool_execute(index: int, spec: RunSpec) -> RunResult:
    """Worker-side entry: execute, then verify the value can travel home.

    The picklability probe runs *in the worker* so an unpicklable return
    value becomes a clean per-spec error instead of the pool's opaque
    ``MaybeEncodingError`` (which loses spec attribution).
    """
    result = _execute(index, spec)
    if result.ok:
        try:
            pickle.dumps(result.value)
        except Exception as exc:
            result = RunResult(
                key=result.key,
                index=index,
                error=(
                    f"run returned an unpicklable value "
                    f"({type(result.value).__name__}): {exc}\n"
                    "Sweep functions must return portable summaries, not "
                    "live simulator state (DESIGN.md §5)."
                ),
                wall_s=result.wall_s,
                pid=result.pid,
            )
    return result


class SweepExecutor:
    """Fan independent :class:`RunSpec` runs over a process pool.

    Parameters
    ----------
    jobs:
        Worker count.  ``1`` executes in-process (no pool, no pickling).
    raise_on_error:
        When True (default), ``map`` raises :class:`SweepError` for the
        first failing spec **in spec order** (deterministic, not
        completion order).  When False, failed specs come back as
        ``RunResult``\\ s with ``.error`` set and ``.ok`` False.
    """

    def __init__(
        self,
        jobs: int = 1,
        raise_on_error: bool = True,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.raise_on_error = raise_on_error

    # -- execution ---------------------------------------------------------

    def map(self, specs: Iterable[RunSpec]) -> List[RunResult]:
        """Run every spec; return results in spec order."""
        spec_list = list(specs)
        if not spec_list:
            return []
        if self.jobs == 1 or len(spec_list) == 1:
            results = [_execute(i, s) for i, s in enumerate(spec_list)]
        else:
            results = self._map_pool(spec_list)
        if self.raise_on_error:
            for r in results:
                if not r.ok:
                    raise SweepError(
                        f"sweep spec #{r.index} ({r.key!r}) failed "
                        f"(pid={r.pid}):\n{r.error}",
                        key=r.key,
                        index=r.index,
                        worker_traceback=r.error or "",
                    )
        return results

    def _map_pool(self, spec_list: Sequence[RunSpec]) -> List[RunResult]:
        from concurrent.futures import ProcessPoolExecutor

        # An unpicklable spec cannot reach a worker; it becomes a
        # submission-side error *result* (pid = this process), so
        # raise_on_error=False still returns every other spec's outcome
        # and raise_on_error=True reports it through the same spec-order
        # path as worker failures.
        results: List[Optional[RunResult]] = [None] * len(spec_list)
        submitted = []
        for i, spec in enumerate(spec_list):
            try:
                pickle.dumps(spec)
            except Exception as exc:
                results[i] = RunResult(
                    key=spec.key if spec.key is not None else i,
                    index=i,
                    error=(
                        f"spec is not picklable: {exc}\n"
                        "Use a module-level function or a 'module:qualname' "
                        "string and plain-data kwargs (DESIGN.md §5)."
                    ),
                    pid=os.getpid(),
                )
            else:
                submitted.append((i, spec))
        if submitted:
            workers = min(self.jobs, len(submitted))
            # Futures are collected in submit order, so the reduce is in
            # spec order no matter how completions interleave.  A hard
            # worker death (os._exit, OOM-kill) surfaces as
            # BrokenProcessPool from .result() — the pool never hangs.  On
            # fork the pool starts every worker at the first submit, before
            # its own manager thread, so worker_context() sees one thread.
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=worker_context()
            ) as pool:
                futures = [
                    (i, pool.submit(_pool_execute, i, spec))
                    for i, spec in submitted
                ]
                for i, future in futures:
                    results[i] = future.result()
        return results  # type: ignore[return-value]  # every slot is filled
