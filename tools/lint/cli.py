"""fncc-lint command line.

Modes::

    fncc-lint                      # lint src/repro
    fncc-lint src/repro/net        # explicit paths
    fncc-lint --list-rules         # rule catalog with DESIGN.md references

Exit status: 0 clean, 1 any finding not suppressed inline (each is
printed), 2 usage/configuration error — including a path that does not
exist and a run that found no Python file to lint.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List

from tools.lint import RULES  # imports register all rule modules
from tools.lint.core import Finding, iter_py_files, lint_source


def find_repo_root(start: str) -> str:
    """Walk up to the directory holding pyproject.toml (falls back to cwd)."""
    d = os.path.abspath(start)
    while True:
        if os.path.isfile(os.path.join(d, "pyproject.toml")):
            return d
        parent = os.path.dirname(d)
        if parent == d:
            return os.path.abspath(start)
        d = parent


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="fncc-lint",
        description="invariant-enforcing static analysis (DESIGN.md §9)",
    )
    ap.add_argument("paths", nargs="*", help="repo-relative paths (default: src/repro)")
    ap.add_argument("--root", default=None, help="repo root (default: auto-detect)")
    ap.add_argument("--list-rules", action="store_true", help="print the rule catalog")
    args = ap.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            _, summary, design_ref = RULES[name]
            print(f"{name}  [{design_ref}]  {summary}")
        return 0

    root = args.root or find_repo_root(os.getcwd())
    paths = args.paths or ["src/repro"]

    # A mistyped path (or a package renamed away from src/repro)
    # must not turn the gate green by linting nothing.
    try:
        files = list(iter_py_files(root, paths))
    except FileNotFoundError as exc:
        print(f"fncc-lint: {exc}", file=sys.stderr)
        return 2
    if not files:
        print(
            f"fncc-lint: no Python files under {', '.join(paths)}; nothing linted",
            file=sys.stderr,
        )
        return 2

    findings: List[Finding] = []
    for abspath, relpath in files:
        with open(abspath, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            findings.extend(lint_source(text, relpath))
        except SyntaxError as exc:
            print(f"fncc-lint: {relpath}: does not parse: {exc.msg}", file=sys.stderr)
            return 2

    if findings:
        for f in findings:
            print(f.format())
        print(
            f"fncc-lint: FAIL — {len(findings)} finding(s); fix each, or add a "
            "justified inline suppression (# fncc-lint: allow[RULE] why-it-is-safe)"
        )
        return 1
    print(f"fncc-lint: OK — 0 finding(s) across {len(files)} file(s)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
