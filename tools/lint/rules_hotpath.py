"""H-series: hot-path ownership rules (DESIGN.md §2).

The hot path trades encapsulation for speed in a few documented places
(inlined ``schedule_reuse`` in ``Port._tx_deliver``, flattened
``schedule_at`` in ``Simulator.schedule``) — which only stays sound
because the set of modules allowed to touch each piece of internal state
is closed.  H301 enforces that closure; H302 enforces ``__slots__`` on
classes living in per-frame modules, where an instance ``__dict__`` is a
real memory and lookup cost.  H303 keeps the cold-start budget (§5.4):
the heavy optional libraries are imported by the function that uses them,
so every process — CLI, sweep worker, shard worker — loads them only if
its run gets there.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from tools.lint.core import FileContext, Finding, rule


@rule(
    "H301",
    "assignment to engine/port internal state outside its owning module",
    "DESIGN.md §2",
)
def check_h301(ctx: FileContext) -> Iterator[Finding]:
    owners = ctx.rule_cfg("h301").get("owners", {})
    if not owners:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for tgt in targets:
            # Chained assignments (a.x = b.y = v) list every target; tuple
            # targets unpack one level.
            elts = tgt.elts if isinstance(tgt, (ast.Tuple, ast.List)) else [tgt]
            for t in elts:
                if not isinstance(t, ast.Attribute):
                    continue
                # self.X / cls.X is the object's *own* state (any class may
                # reuse a protected name for itself); H301 polices writes
                # into OTHER objects' internals: sim._heap, ev.alive, ...
                if isinstance(t.value, ast.Name) and t.value.id in ("self", "cls"):
                    continue
                allowed = owners.get(t.attr)
                if allowed is None or ctx.in_paths(allowed):
                    continue
                yield Finding(
                    "H301",
                    ctx.relpath,
                    t.lineno,
                    t.col_offset + 1,
                    f"write to protected attribute {t.attr!r} from a "
                    f"non-owning module (owners: {', '.join(allowed)}); go "
                    f"through the owner's API or land an ownership grant in "
                    "DEFAULTS['h301']['owners'] in tools/lint/config.py",
                )


def _last_attr(expr: ast.AST) -> str:
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return ""


@rule(
    "H302",
    "classes in per-frame hot modules must declare __slots__",
    "DESIGN.md §2",
)
def check_h302(ctx: FileContext) -> Iterator[Finding]:
    cfg = ctx.rule_cfg("h302")
    if not ctx.in_paths(cfg.get("hot_modules", ())):
        return
    exempt = set(cfg.get("exempt_bases", ()))
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {_last_attr(b) for b in node.bases}
        if any(b in exempt or b.endswith(("Error", "Exception")) for b in bases):
            continue
        has_slots = any(
            isinstance(stmt, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets
            )
            for stmt in node.body
        )
        if not has_slots:
            yield Finding(
                "H302",
                ctx.relpath,
                node.lineno,
                node.col_offset + 1,
                f"class {node.name} lives in a per-frame hot module but has "
                f"no __slots__; an instance __dict__ here costs memory and "
                f"attribute-lookup time at frame rates",
            )


def _import_time_stmts(body: Iterable[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements that execute when the module is imported: everything
    outside function bodies and ``if TYPE_CHECKING:`` blocks."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, ast.If) and _last_attr(stmt.test) == "TYPE_CHECKING":
            yield from _import_time_stmts(stmt.orelse)
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _import_time_stmts(getattr(stmt, field, ()))
        for handler in getattr(stmt, "handlers", ()):
            yield from _import_time_stmts(handler.body)


@rule(
    "H303",
    "import-time import of a deferred heavy library (scipy, networkx, numpy)",
    "DESIGN.md §5.4",
)
def check_h303(ctx: FileContext) -> Iterator[Finding]:
    deferred = tuple(ctx.rule_cfg("h303").get("deferred_imports", ()))
    if not deferred:
        return
    for stmt in _import_time_stmts(ctx.tree.body):
        if isinstance(stmt, ast.Import):
            modules = [a.name for a in stmt.names]
        elif isinstance(stmt, ast.ImportFrom) and stmt.level == 0 and stmt.module:
            modules = [stmt.module]
        else:
            continue
        for mod in modules:
            top = mod.split(".")[0]
            if top in deferred:
                yield Finding(
                    "H303",
                    ctx.relpath,
                    stmt.lineno,
                    stmt.col_offset + 1,
                    f"{mod!r} is imported when this module is; import {top} "
                    f"inside the function that uses it (annotations go under "
                    f"`if TYPE_CHECKING:`) so processes that never call it "
                    f"do not pay for it at start-up",
                )
