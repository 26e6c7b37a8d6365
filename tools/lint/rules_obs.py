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

#: Collector/exporter modules consume registry snapshots; mutating a metric
#: from one would double-count on re-export (DESIGN.md §8: reads are
#: pull-based, writes belong to the instrumented code).
COLLECTOR_MODULES = (
    "src/repro/obs/export.py",
    "src/repro/obs/flight.py",
    "src/repro/obs/progress.py",
)
MUTATORS = frozenset({"inc", "observe", "set"})

#: Switch owns the train gate.  Tap-like hooks elsewhere must go through
#: that protocol (§8) and carry a justified suppression.
GATE_OWNER_MODULES = ("src/repro/net/switch.py",)


@rule(
    "O401",
    "metric mutation (.inc/.observe/.set) from a collector/exporter module "
    "— registry access from collectors is pull-only",
    "DESIGN.md §8",
)
def check_o401(ctx: FileContext) -> Iterator[Finding]:
    if not ctx.in_paths(COLLECTOR_MODULES):
        return
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
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
    if ctx.in_paths(GATE_OWNER_MODULES):
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
