"""O-series: observability-discipline rules (DESIGN.md §8).

The obs layer's contract: instrumented code *pushes* metrics, collectors
and exporters only *pull* snapshots (O401) — a collector that mutates a
metric double-counts on the next export and perturbs the thing it
measures.  And the frame-train gate ``Switch._train_ok`` has exactly one
safe manipulation protocol (clear on install, recompute on detach — the
FaultInjector's); any hook that pokes it directly either leaks a closed gate (perf
cliff) or reopens it under a live tap (missed frames) — O402.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.core import FileContext, Finding, rule


@rule(
    "O401",
    "metric mutation (.inc/.observe/.set) from a collector/exporter module "
    "— registry access from collectors is pull-only",
    "DESIGN.md §8",
)
def check_o401(ctx: FileContext) -> Iterator[Finding]:
    cfg = ctx.rule_cfg("o401")
    if not ctx.in_paths(cfg.get("collector_modules", ())):
        return
    mutators = set(cfg.get("mutators", ()))
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in mutators
        ):
            yield Finding(
                "O401",
                ctx.relpath,
                node.lineno,
                node.col_offset + 1,
                f".{node.func.attr}() from a collector module; collectors "
                f"pull snapshots only — push metrics from the instrumented "
                f"code itself",
            )


@rule(
    "O402",
    "_train_ok written outside the switch's train-gate protocol",
    "DESIGN.md §8",
)
def check_o402(ctx: FileContext) -> Iterator[Finding]:
    cfg = ctx.rule_cfg("o402")
    if ctx.in_paths(cfg.get("owner_modules", ())):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for t in targets:
            if isinstance(t, ast.Attribute) and t.attr == "_train_ok":
                yield Finding(
                    "O402",
                    ctx.relpath,
                    t.lineno,
                    t.col_offset + 1,
                    "direct write to Switch._train_ok; hooks must follow the "
                    "train-gate protocol (clear on install, "
                    "_recompute_train_ok() on detach) — see DESIGN.md §8",
                )
