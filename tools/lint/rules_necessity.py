"""N-series: necessity rules (DESIGN.md §9.1, ROADMAP item 19).

The reach census (§9.2) makes "every line necessary" a check for whole
definitions; inside a module nothing checked it.  N601 flags a
module-level import no code in its module reads: it costs an import at
start-up and tells a reader a dependency exists that does not.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from tools.lint.core import FileContext, Finding, rule


def _module_imports(body) -> Iterator[ast.stmt]:
    """The import statements a module runs at import, including those
    under a module-level ``if`` / ``try`` / ``with`` (``TYPE_CHECKING``
    blocks, optional-dependency fallbacks), but not inside a def or class."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_imports(getattr(node, block, ()))
            for handler in getattr(node, "handlers", ()):
                yield from _module_imports(handler.body)


def _quoted_names(node) -> Iterator[str]:
    """The names the string constants under ``node`` read, each string
    parsed as an expression (``"Flow"``, ``"Optional[Simulator]"``)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def _used_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads: in code, in a quoted annotation, in a
    quoted name inside a module-level type alias (``Factory =
    Callable[["Host"], None]``), and in its ``__all__``.  Any other string
    (a message, a dict key) reads nothing."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used.update(_quoted_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_quoted_names(node.returns))
    for node in tree.body:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript):
            used.update(_quoted_names(node.value))  # a type alias
        elif any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return used


@rule(
    "N601",
    "module-level import that nothing in its module reads",
    "DESIGN.md §9.1",
)
def check_n601(ctx: FileContext) -> Iterator[Finding]:
    if ctx.relpath.endswith("__init__.py"):
        return  # a package root's imports are its re-exports
    used = _used_names(ctx.tree)
    for node in _module_imports(ctx.tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                yield Finding(
                    "N601",
                    ctx.relpath,
                    node.lineno,
                    node.col_offset + 1,
                    f"{bound!r} is imported and never used in this module; "
                    f"delete the import",
                )
