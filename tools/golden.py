"""One identity store: the committed tables that hold results steady
across commits (DESIGN.md §7), each declared as a :class:`Table` in the
``TABLES`` of a file :data:`DECLARED_IN` lists.  A row that
``tests/test_golden_store.py`` finds moved is dropped, or explained in
CHANGES.md, naming the table's file, and then re-blessed::

    python -m tools.golden --rebless <table>
"""

from __future__ import annotations

import argparse
import json
import runpy
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
CHANGES_PATH = ROOT / "CHANGES.md"
DECLARED_IN = ("tests/experiments/golden_cli.py", "tests/hybrid/golden.py",
               "tests/opcode_pin.py", "tools/census.py")


@dataclass(frozen=True)
class Table:
    path: Path
    #: Row name -> the zero-argument computation of its JSON value.
    rows: Dict[str, Callable[[], object]] = field(default_factory=dict)
    #: The rows checked only under ``pytest -m slow``.
    slow: FrozenSet[str] = frozenset()
    #: The computed rows -> the file's document.
    document: Callable[[dict], dict] = lambda rows: rows
    #: The keys of the document whose objects hold the rows, one a line.
    groups: Tuple[str, ...] = ()
    #: Why this interpreter cannot check the rows, or None.
    skip: Callable[[], Optional[str]] = lambda: None
    #: How a moved value is shown, before and after.
    show: Callable[[object], object] = lambda value: value

    @property
    def name(self) -> str:
        return self.path.stem


def tables() -> Dict[str, Table]:
    """Every declared table by name, in declaration order."""
    sys.path[:0] = [path for path in (str(ROOT), str(ROOT / "src")) if path not in sys.path]
    return {table.name: table for rel in DECLARED_IN
            for table in runpy.run_path(str(ROOT / rel))["TABLES"]}


def dumps(table: Table, doc: dict) -> str:
    """The file layout: one field a line, and inside a group one row a line."""
    lines = []
    for key, value in doc.items():
        if key in table.groups:
            rows = ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
            lines.append(f"  {json.dumps(key)}: {{\n{rows}\n  }}")
        else:
            lines.append(f"  {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def record(table: Table) -> dict:
    """The table's document, freshly computed, rows in declaration order."""
    return table.document({name: compute() for name, compute in table.rows.items()})


def _flat(table: Table, doc: dict) -> dict:
    """The fields and rows of ``doc`` in one mapping, as JSON reads them."""
    out = {}
    for key, value in json.loads(json.dumps(doc)).items():
        out.update(value if key in table.groups else {key: value})
    return out


def check(table: Table, names: Optional[Sequence[str]] = None) -> List[tuple]:
    """The rows whose fresh value differs from the file's, each as (row,
    recorded, computed, the pytest command that recomputes a declared row
    or None), values as ``table.show`` shows them; ``names`` limits the
    check to those rows."""
    return _moved(table, record(table) if names is None else
                  {name: table.rows[name]() for name in names}, names)


def _moved(table: Table, doc: dict, names: Optional[Sequence[str]]) -> List[tuple]:
    """:func:`check` of an already computed document."""
    recorded = _flat(table, json.loads(table.path.read_text(encoding="utf-8")))
    computed = _flat(table, doc)
    moved = []
    for name in names or dict.fromkeys([*recorded, *computed]):
        if recorded.get(name) != computed.get(name):
            slow = " -m slow" if name in table.slow else ""
            command = (f"python -m pytest{slow} 'tests/test_golden_store.py::"
                       f"test_row_matches_the_store[{table.name}/{name}]'")
            moved.append((name, table.show(recorded.get(name)), table.show(computed.get(name)),
                          command if name in table.rows else None))
    return moved


def rebless(table: Table) -> None:
    """Recompute ``table``, print each row that moved, and rewrite its
    file, once CHANGES.md says why."""
    if table.skip():
        raise SystemExit(f"refusing: {table.skip()}")
    newest = CHANGES_PATH.read_text(encoding="utf-8").rstrip().splitlines()[-1]
    if table.path.name not in newest:
        raise SystemExit(f"refusing: the newest CHANGES.md entry does not name "
                         f"{table.path.name}; write down why its rows moved, then re-bless")
    doc = record(table)
    for name, old, new, _ in _moved(table, doc, None):
        print(f"{name}: {old} -> {new}", file=sys.stderr)
    table.path.write_text(dumps(table, doc), encoding="utf-8")
    print(f"wrote {table.path}", file=sys.stderr)


if __name__ == "__main__":
    declared = tables()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rebless", required=True, choices=list(declared), metavar="TABLE",
                    help=f"recompute TABLE ({', '.join(declared)}) and rewrite its file")
    rebless(declared[ap.parse_args().rebless])
