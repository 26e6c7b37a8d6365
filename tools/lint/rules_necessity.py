"""N-series: necessity rules (DESIGN.md §9.1, ROADMAP item 19).

The reach census (§9.2) makes "every line necessary" a check for
definitions and their lines; what a line stores it cannot judge.  N601
flags a module-level import no code in its module reads: it costs an
import at start-up and tells a reader a dependency exists that does not.
N602 flags an attribute stored on ``self`` that no code in the checkout
reads: every store of it is work for nothing.
"""

from __future__ import annotations

import ast
import functools
import os
from typing import Iterator, Set

from tools.lint.core import FileContext, Finding, rule

#: The repository root, the directories of :data:`READ_PATHS` are under.
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Where a read of an attribute stored under src/repro may be: an attribute
#: only a test or a tool reads is still read.
READ_PATHS = ("src", "tests", "tools", "benchmarks", "examples")


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


def _attribute_reads(tree: ast.AST) -> Set[str]:
    """The attribute names ``tree`` reads: each attribute load, and each
    string a ``getattr`` or ``hasattr`` call names.  A store, a ``del`` and
    an augmented assignment (``x.n += 1``) read nothing."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr") and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            reads.add(node.args[1].value)
    return reads


@functools.lru_cache(maxsize=None)
def _checkout_reads() -> frozenset:
    """:func:`_attribute_reads` of every Python file under
    :data:`READ_PATHS`, once per lint run."""
    from tools.lint.core import iter_py_files

    reads = set()
    for abspath, _ in iter_py_files(_ROOT, [p for p in READ_PATHS if os.path.exists(os.path.join(_ROOT, p))]):
        with open(abspath, encoding="utf-8") as fh:
            try:
                reads |= _attribute_reads(ast.parse(fh.read()))
            except SyntaxError:
                continue
    return frozenset(reads)


@rule(
    "N602",
    "attribute stored on self that nothing in the checkout reads",
    "DESIGN.md §9.1",
)
def check_n602(ctx: FileContext) -> Iterator[Finding]:
    reads = _checkout_reads() | _attribute_reads(ctx.tree)
    stores = sorted((node.lineno, node.col_offset, node.attr) for node in ast.walk(ctx.tree)
                    if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id == "self")
    flagged = set()
    for line, col, attr in stores:
        if attr not in reads and attr not in flagged:
            flagged.add(attr)
            yield Finding(
                "N602",
                ctx.relpath,
                line,
                col + 1,
                f"self.{attr} is stored and never read in the checkout; "
                f"delete it and its stores",
            )
