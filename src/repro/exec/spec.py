"""Picklable run descriptions (:class:`RunSpec`) and portable outcomes
(:class:`RunResult`) for the sweep executor.

Picklability rules (DESIGN.md §5): a spec must survive a round trip
through ``pickle`` because the pool ships it to a worker process — one
forked from the parent, or a freshly spawned interpreter where fork is
not used, and the pool pickles every spec either way.  That means:

* ``fn`` is either a **module-level** callable (pickled by reference) or a
  ``"module:qualname"`` string resolved inside the worker — never a
  lambda, closure, or bound method of a live simulation object.
* ``kwargs`` hold plain configuration values (numbers, strings, tuples),
  not live ``Simulator``/``Topology``/``Packet`` state.  The run builds
  its own world from the spec; per-run determinism comes from the seed.
* the *return value* of ``fn`` must be picklable too, so experiment
  sweeps return portable summary objects instead of live simulators.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Union

FnRef = Union[str, Callable[..., Any]]


def resolve_callable(ref: FnRef) -> Callable[..., Any]:
    """Resolve ``ref`` to a callable.

    Strings use the ``"package.module:qualname"`` convention (the entry
    point syntax), so a spec can name its function without pickling code
    objects at all — the worker imports the module and walks the
    attribute path.
    """
    if callable(ref):
        # census: a callable, not a 'module:qualname' name — tests/exec/test_executor.py::TestInProcessFallback::test_jobs1_accepts_unpicklable_fn
        return ref
    if isinstance(ref, str):
        mod_name, sep, qualname = ref.partition(":")
        if not sep or not mod_name or not qualname:
            raise ValueError(
                f"callable reference {ref!r} must look like 'pkg.module:qualname'"
            )
        obj: Any = importlib.import_module(mod_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        if not callable(obj):
            raise TypeError(f"{ref!r} resolved to non-callable {obj!r}")
        return obj
    raise TypeError(f"fn must be a callable or 'module:qualname' string, got {ref!r}")


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run, described by data only.

    ``seed`` is a convenience for multi-seed sweeps: when set, it is
    merged into ``kwargs`` as ``kwargs["seed"]`` at call time (an explicit
    ``kwargs["seed"]`` and a ``seed=`` field must not disagree).
    ``key`` identifies the run in results and error messages; it defaults
    to the spec's position in the sweep.
    """

    fn: FnRef
    kwargs: Dict[str, Any] = field(default_factory=dict)
    key: Any = None
    seed: Optional[int] = None

    def call_kwargs(self) -> Dict[str, Any]:
        kw = dict(self.kwargs)
        if self.seed is not None:
            if "seed" in kw and kw["seed"] != self.seed:
                raise ValueError(
                    f"spec {self.key!r}: kwargs['seed']={kw['seed']!r} conflicts "
                    f"with RunSpec.seed={self.seed!r}"
                )
            kw["seed"] = self.seed
        return kw

    def run(self) -> Any:
        """Execute the run (in whatever process this is called from)."""
        return resolve_callable(self.fn)(**self.call_kwargs())


@dataclass
class RunResult:
    """Portable outcome of one :class:`RunSpec`.

    Exactly one of ``value`` / ``error`` is meaningful: ``error`` is the
    worker's formatted traceback text when the run raised.  ``index`` is
    the spec's position in the submitted sweep — results are always
    reduced back into this order, regardless of completion order.
    ``wall_s``/``pid`` are diagnostics (never part of determinism
    comparisons; fingerprints live in ``value``).
    """

    key: Any
    index: int
    value: Any = None
    wall_s: float = 0.0
    error: Optional[str] = None
    pid: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None
