"""P-series: picklability rules (DESIGN.md §5).

A :class:`repro.exec.spec.RunSpec` is shipped by pickle to a *spawned*
interpreter, so its ``fn`` must be resolvable by reference and its kwargs
must be plain data.  Violations surface only at sweep time, in a worker,
as an opaque pickling traceback — these rules move the failure to lint
time, at the call site.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from tools.lint.core import FileContext, Finding, rule

#: The classes whose instances are pickled to a spawned worker.
SPEC_CLASSES = frozenset({"RunSpec"})


def _spec_calls(ctx: FileContext) -> Iterator[ast.Call]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in SPEC_CLASSES:
            yield node
        elif isinstance(f, ast.Attribute) and f.attr in SPEC_CLASSES:
            yield node


def _fn_arg(call: ast.Call) -> Optional[ast.AST]:
    for kw in call.keywords:
        if kw.arg == "fn":
            return kw.value
    return call.args[0] if call.args else None


def _kwargs_arg(call: ast.Call) -> Optional[ast.AST]:
    for kw in call.keywords:
        if kw.arg == "kwargs":
            return kw.value
    return call.args[1] if len(call.args) >= 2 else None


@rule(
    "P201",
    "RunSpec fn must be module-level (a name or 'module:qualname' string), "
    "never a lambda/closure/partial",
    "DESIGN.md §5",
)
def check_p201(ctx: FileContext) -> Iterator[Finding]:
    for call in _spec_calls(ctx):
        fn = _fn_arg(call)
        if fn is None:
            continue
        bad = ""
        if isinstance(fn, ast.Lambda):
            bad = "a lambda"
        elif isinstance(fn, ast.Call):
            dotted = ctx.dotted(fn.func) or ""
            if dotted.endswith("partial"):
                bad = "a functools.partial"
            else:
                bad = "a call result"
        if bad:
            yield Finding(
                "P201",
                ctx.relpath,
                fn.lineno,
                fn.col_offset + 1,
                f"spec fn is {bad}; spawn-started workers re-import it by "
                f"reference — pass a module-level callable or a "
                f"'module:qualname' string",
            )


@rule(
    "P202",
    "RunSpec kwargs must be plain data (no lambdas / live objects)",
    "DESIGN.md §5",
)
def check_p202(ctx: FileContext) -> Iterator[Finding]:
    for call in _spec_calls(ctx):
        kwargs = _kwargs_arg(call)
        if kwargs is None:
            continue
        for sub in ast.walk(kwargs):
            if isinstance(sub, ast.Lambda):
                yield Finding(
                    "P202",
                    ctx.relpath,
                    sub.lineno,
                    sub.col_offset + 1,
                    "lambda inside RunSpec kwargs cannot pickle to a spawned "
                    "worker; pass plain configuration values and rebuild "
                    "behavior from them in the run fn",
                )
