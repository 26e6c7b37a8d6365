"""fncc-lint core: findings, the rule registry, suppressions, file walking.

A *rule* is a function ``check(ctx) -> Iterable[Finding]`` registered with
the :func:`rule` decorator; ``ctx`` is a :class:`FileContext` carrying the
parsed AST, source lines, repo-relative path and merged config.  Rules are
pure — all repo-specific policy (sanctioned modules, ownership maps) comes
in through config, which is what makes the fixture tests in ``tests/lint/``
able to exercise each rule on synthetic snippets with synthetic paths.

Suppressions (DESIGN.md §9): ``# fncc-lint: allow[RULE]`` (or
``allow[R1,R2]``) on the offending line or the line directly above it.
Justification text after the bracket is **required** — a bare allow is
itself a finding (``LINT000``), and LINT000 cannot be suppressed.  The
justification is the reviewable artifact: it must say why the invariant
holds anyway, not merely that the author wanted the warning gone.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: rule name -> (check_fn, summary, design_ref)
RULES: Dict[str, Tuple[Callable, str, str]] = {}

#: The meta-rule for malformed/unjustified suppressions.  Unsuppressable.
META_RULE = "LINT000"

_SUPPRESS_RE = re.compile(
    r"#\s*fncc-lint:\s*allow\[([A-Za-z0-9_,\s]+)\]\s*:?\s*(.*?)\s*$"
)


class Finding:
    """One rule violation at one source location."""

    __slots__ = ("rule", "path", "line", "col", "message")

    def __init__(self, rule: str, path: str, line: int, col: int, message: str) -> None:
        self.rule = rule
        self.path = path
        self.line = line
        self.col = col
        self.message = message

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Finding {self.format()}>"


def rule(name: str, summary: str, design_ref: str):
    """Register a rule function in :data:`RULES`."""

    def deco(fn):
        if name in RULES:
            raise RuntimeError(f"duplicate rule {name}")
        RULES[name] = (fn, summary, design_ref)
        return fn

    return deco


class FileContext:
    """Everything a rule needs to analyze one file."""

    def __init__(self, relpath: str, text: str, cfg: dict) -> None:
        self.relpath = relpath.replace(os.sep, "/")
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=relpath)
        self.cfg = cfg
        self.import_aliases = self._collect_imports(self.tree)

    @staticmethod
    def _collect_imports(tree: ast.AST) -> Dict[str, str]:
        """Map local names to dotted origins: ``import random as r`` ->
        ``{"r": "random"}``; ``from random import shuffle`` ->
        ``{"shuffle": "random.shuffle"}``."""
        aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    aliases[a.asname or a.name.split(".")[0]] = (
                        a.name if a.asname else a.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for a in node.names:
                    if a.name != "*":
                        aliases[a.asname or a.name] = f"{node.module}.{a.name}"
        return aliases

    def dotted(self, node: ast.AST) -> Optional[str]:
        """Resolve ``Name``/``Attribute`` chains to a dotted origin string
        through the file's import aliases; None for dynamic expressions."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.import_aliases.get(node.id, node.id)
        parts.append(base)
        return ".".join(reversed(parts))

    def rule_cfg(self, name: str) -> dict:
        return self.cfg.get(name.lower(), {})

    def in_paths(self, paths: Iterable[str]) -> bool:
        """Is this file one of / under any of the given repo-relative paths?"""
        for p in paths:
            p = p.rstrip("/")
            if self.relpath == p or self.relpath.startswith(p + "/"):
                return True
        return False


def parse_suppressions(
    lines: List[str], relpath: str
) -> Tuple[Dict[int, frozenset], List[Finding]]:
    """Scan for ``# fncc-lint: allow[...]`` comments.

    Returns ``(line -> allowed rule names, meta findings)``; an allow with
    no justification text yields a LINT000 meta finding and still does NOT
    suppress anything (a broken gag must not silence the alarm).
    """
    supp: Dict[int, frozenset] = {}
    meta: List[Finding] = []
    for i, line in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(line)
        if not m:
            continue
        names = frozenset(n.strip() for n in m.group(1).split(",") if n.strip())
        justification = m.group(2).strip()
        if not names or META_RULE in names:
            meta.append(
                Finding(META_RULE, relpath, i, 1, "malformed fncc-lint suppression")
            )
            continue
        if not justification:
            meta.append(
                Finding(
                    META_RULE,
                    relpath,
                    i,
                    1,
                    f"suppression allow[{','.join(sorted(names))}] has no "
                    f"justification text (required; see DESIGN.md §9)",
                )
            )
            continue
        supp[i] = names
    return supp, meta


def lint_source(
    text: str,
    relpath: str,
    cfg: dict,
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one source string as if it lived at ``relpath``.

    The entry point for both the CLI (which reads files first) and the
    fixture tests (which pass synthetic snippets).  Findings covered by a
    valid inline suppression on the same or preceding line are dropped;
    LINT000 meta findings are always kept.
    """
    ctx = FileContext(relpath, text, cfg)
    supp, findings = parse_suppressions(ctx.lines, ctx.relpath)
    names = sorted(RULES) if rules is None else list(rules)
    for name in names:
        check, _, _ = RULES[name]
        for f in check(ctx):
            allowed = supp.get(f.line, frozenset()) | supp.get(f.line - 1, frozenset())
            if f.rule not in allowed:
                findings.append(f)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def iter_py_files(root: str, paths: Iterable[str]) -> Iterator[Tuple[str, str]]:
    """Yield ``(abspath, repo-relative posix path)`` for every .py file under
    the given repo-relative paths (files accepted verbatim).  A path that
    does not exist raises: ``os.walk`` would silently yield nothing, and a
    lint run over nothing reads as a clean one."""
    for p in paths:
        ap = os.path.join(root, p)
        if os.path.isfile(ap):
            yield ap, p.replace(os.sep, "/")
            continue
        if not os.path.isdir(ap):
            raise FileNotFoundError(f"no such path under {root}: {p}")
        for dirpath, dirnames, filenames in os.walk(ap):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fn in sorted(filenames):
                if fn.endswith(".py"):
                    full = os.path.join(dirpath, fn)
                    rel = os.path.relpath(full, root).replace(os.sep, "/")
                    yield full, rel


def lint_paths(
    root: str,
    paths: Iterable[str],
    cfg: dict,
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint every Python file under ``paths`` (repo-relative, from ``root``)."""
    findings: List[Finding] = []
    for abspath, relpath in iter_py_files(root, paths):
        with open(abspath, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            findings.extend(lint_source(text, relpath, cfg, rules))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    META_RULE,
                    relpath,
                    exc.lineno or 1,
                    exc.offset or 1,
                    f"file does not parse: {exc.msg}",
                )
            )
    return findings
