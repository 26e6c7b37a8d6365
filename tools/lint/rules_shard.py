"""S-series: shard-isolation rules (DESIGN.md §11).

Shards never share live objects: the only state that crosses a cut is a
plain-data frame message, and the only code allowed to peek inside a
fabric object's private machinery on a shard's behalf is the sanctioned
boundary adapter (``repro.shard.boundary``, which walks the cut port's
in-flight FIFO to build those messages).  Everything else in the shard
package must drive fabrics through their public surface — a coordinator
that reaches into ``port._inflight`` or ``sim._heap`` directly would
read state that, in the process-backed runtime, belongs to another
interpreter and silently desynchronize the two backends.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.core import FileContext, Finding, rule

#: Shard isolation (DESIGN.md §11): only the boundary adapter may reach
#: into fabric objects' private machinery; everything else in the shard
#: package drives fabrics through their public surface so the in-process
#: and process-backed runtimes stay interchangeable.
SHARD_MODULES = ("src/repro/shard",)
ADAPTER_MODULES = ("src/repro/shard/boundary.py",)


def _is_private(attr: str) -> bool:
    return attr.startswith("_") and not (attr.startswith("__") and attr.endswith("__"))


@rule(
    "S501",
    "shard orchestration code must not touch private attributes of fabric "
    "objects; boundary crossings go through the shard message types",
    "DESIGN.md §11",
)
def check_s501(ctx: FileContext) -> Iterator[Finding]:
    if not ctx.in_paths(SHARD_MODULES) or ctx.in_paths(ADAPTER_MODULES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Attribute) or not _is_private(node.attr):
            continue
        base = node.value
        # An object's own private state (self._x / cls._x) is its business;
        # the rule targets reach-through into *other* objects.
        if isinstance(base, ast.Name) and base.id in ("self", "cls"):
            continue
        yield Finding(
            "S501",
            ctx.relpath,
            node.lineno,
            node.col_offset + 1,
            f"private attribute {node.attr!r} of a fabric object accessed "
            f"from shard orchestration code; only the boundary adapter may "
            f"reach inside — cross-shard state travels as plain-data "
            f"messages (repro.shard.messages)",
        )
