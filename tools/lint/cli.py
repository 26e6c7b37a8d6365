"""fncc-lint command line.

Modes::

    fncc-lint                      # lint configured paths vs the baseline
    fncc-lint src/repro/net        # explicit paths (still vs baseline)
    fncc-lint --check-baseline     # CI gate: also report shrinkable debt
    fncc-lint --update-baseline    # rewrite the baseline to current state
    fncc-lint --no-baseline        # raw findings, baseline ignored
    fncc-lint --list-rules         # rule catalog with DESIGN.md references

Exit status: 0 clean (or fully baselined), 1 findings the baseline does not
cover, 2 usage/configuration error — including a path that does not exist
and a run that found no Python file to lint.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List

from tools.lint import RULES  # imports register all rule modules
from tools.lint.baseline import (
    compare,
    count_findings,
    finding_key,
    load_baseline,
    save_baseline,
)
from tools.lint.config import load_config
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
    ap.add_argument("paths", nargs="*", help="repo-relative paths (default: config)")
    ap.add_argument("--root", default=None, help="repo root (default: auto-detect)")
    ap.add_argument(
        "--rules", default=None, help="comma-separated rule subset (default: all)"
    )
    ap.add_argument(
        "--check-baseline",
        action="store_true",
        help="CI gate: fail on unbaselined findings, report shrinkable debt",
    )
    ap.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file to match current findings",
    )
    ap.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline",
    )
    ap.add_argument("--list-rules", action="store_true", help="print the rule catalog")
    args = ap.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            _, summary, design_ref = RULES[name]
            print(f"{name}  [{design_ref}]  {summary}")
        return 0

    root = args.root or find_repo_root(os.getcwd())
    cfg = load_config(root)
    paths = args.paths or cfg.get("paths", ["src/repro"])
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rules if r not in RULES]
        if unknown:
            print(f"fncc-lint: unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
            return 2

    # A mistyped path (or a package renamed under [tool.fncc-lint].paths)
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
    sources: Dict[str, List[str]] = {}
    for abspath, relpath in files:
        with open(abspath, "r", encoding="utf-8") as fh:
            text = fh.read()
        sources[relpath] = text.splitlines()
        try:
            findings.extend(lint_source(text, relpath, cfg, rules))
        except SyntaxError as exc:
            print(f"fncc-lint: {relpath}: does not parse: {exc.msg}", file=sys.stderr)
            return 2

    baseline_path = os.path.join(root, cfg.get("baseline", "tools/lint/baseline.json"))
    current = count_findings(findings, sources)

    if args.update_baseline:
        save_baseline(baseline_path, current)
        print(
            f"fncc-lint: baseline updated: {len(current)} key(s), "
            f"{sum(current.values())} finding(s) -> {baseline_path}"
        )
        return 0

    if args.no_baseline:
        for f in findings:
            print(f.format())
        print(f"fncc-lint: {len(findings)} finding(s) (baseline ignored)")
        return 1 if findings else 0

    try:
        baseline = load_baseline(baseline_path)
    except ValueError as exc:
        print(f"fncc-lint: {exc}", file=sys.stderr)
        return 2
    regressions, fixed = compare(current, baseline)

    if regressions:
        # Print the actual findings behind unbaselined keys, so the console
        # output is actionable without decoding baseline keys.
        covered: Dict[str, int] = dict(baseline)
        for f in findings:
            lines = sources.get(f.path, ())
            text = lines[f.line - 1] if 0 < f.line <= len(lines) else ""
            key = finding_key(f, text)
            if covered.get(key, 0) > 0:
                covered[key] -= 1  # this occurrence is baselined debt
                continue
            print(f.format())
        print(
            f"fncc-lint: FAIL — {len(regressions)} finding key(s) exceed the "
            f"baseline ({baseline_path})"
        )
        print(
            "fncc-lint: fix the findings, add a justified inline suppression "
            "(# fncc-lint: allow[RULE] why-it-is-safe), or — for pre-existing "
            "debt only — run --update-baseline"
        )
        return 1

    if args.check_baseline and fixed:
        print("fncc-lint: baseline debt shrank (run --update-baseline to ratchet):")
        for line in fixed:
            print(f"  {line}")
    n_baselined = sum(current.values())
    print(
        f"fncc-lint: OK — 0 unbaselined finding(s)"
        + (f", {n_baselined} baselined" if n_baselined else "")
        + f" across {len(sources)} file(s)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
