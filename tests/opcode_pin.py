"""Exact interpreter work, per package: the ``opcode_pin`` table of the
identity store (``tools/golden.py``).

For the smoke cell of each in-process benchmark workload, after the
warm-up ``python tools/profile.py --workload W --opcodes`` runs too, the
table holds the cell's units of work, the fabrics it built, and the
bytecode instructions it executed (:func:`tools.trace.count_phases`) by
phase and by :func:`bucket`: the ``src/repro`` package whose code ran them,
``net/port.py`` and ``net/switch.py`` apart, or ``other``.  ``build`` is
every instruction inside a topology builder (routing install included) or
a traffic generator (:func:`tools.profile.builders`), ``run`` the rest of
the cell.  Code of installed packages (numpy) is left out: its version is
the environment's.  ``websearch_fattree_classic`` counts the
``websearch_fattree`` cell again under ``tests/helpers.classic_hops_only()``,
so every switch hop runs ``Switch.receive`` and ``Switch.on_departure``
rather than the fused copy in ``Port._tx_deliver``: an edit to either
body moves its ``net.switch`` bucket.  Each row is counted in a fresh
interpreter.  The count is exact, so a change that moves it writes the
per-package before and after into CHANGES.md before it re-blesses; a moved
row shows the run phase per unit of work and the build phase per fabric
(:func:`per_unit`).
Bytecode differs between CPython versions, so the table records the one
it was counted on, and its rows are checked on no other.
"""

import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from tools.golden import Table
from tools.profile import WORKLOADS
from tools.trace import count_phases

ROOT = Path(__file__).resolve().parents[1]
PIN_PATH = Path(__file__).with_name("opcode_pin.json")
PKG = ROOT / "src" / "repro"

def interpreter() -> str:
    """The bytecode dialect a count belongs to."""
    return f"{sys.implementation.name}-{sys.version_info[0]}.{sys.version_info[1]}"


def bucket(filename: str) -> str:
    """``src/repro/<package>/...`` -> ``<package>``, but the port and switch
    hot paths, where FNCC's ACK-path INT stamp lives, -> ``net.port`` and
    ``net.switch``; anything else -> ``other``."""
    try:
        rel = Path(filename).resolve().relative_to(PKG)
    except ValueError:
        return "other"
    split = {"net/port.py": "net.port", "net/switch.py": "net.switch"}
    return split.get(rel.as_posix(), rel.parts[0].removesuffix(".py"))


#: Row name -> the workload whose smoke cell it counts, every hop classic
#: or not.
ROWS = {**{workload: (workload, False) for workload in WORKLOADS},
        "websearch_fattree_classic": ("websearch_fattree", True)}


def count(row: str) -> dict:
    """Warm up, then count the smoke cell of ``row`` in this process."""
    from contextlib import nullcontext

    from benchmarks.suite.cells import IMPL
    from benchmarks.suite.specs import SMOKE, sub_seed
    from benchmarks.suite.trace import Spans
    from tests.helpers import classic_hops_only

    workload, classic = ROWS[row]
    impl, off = IMPL[workload], Spans(False)
    impl.warmup(SMOKE[workload], off)
    with classic_hops_only() if classic else nullcontext():
        cell, fabrics, counts = count_phases(
            lambda: impl.cell(SMOKE[workload], sub_seed(1, 0), off))
    assert not cell["problems"], cell["problems"]
    phases: dict = {"run": {}, "build": {}}
    for (phase, code), n in counts.items():
        if {"site-packages", "dist-packages"} & set(Path(code.co_filename).parts):
            continue  # an installed third-party package
        key = bucket(code.co_filename)
        phases[phase][key] = phases[phase].get(key, 0) + n
    return {"work": cell["work"], "fabrics": fabrics,
            **{phase: dict(sorted(ops.items())) for phase, ops in phases.items()}}


def count_fresh(row: str) -> dict:
    """:func:`count` in a new interpreter, given the package, the suite and the store."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--count", row],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((str(ROOT), str(ROOT / "src")))},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{row}: counting failed\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def per_unit(row):
    """How a moved row is shown: the run phase's opcodes per unit of work
    and the build phase's per fabric, per package and in total (anything
    else, such as the ``python`` field or a row of another layout, as it
    is)."""
    if not isinstance(row, dict) or "run" not in row:
        return row
    out = {"work": row["work"], "fabrics": row["fabrics"]}
    for phase, per in (("run", row["work"]), ("build", row["fabrics"])):
        ops = row[phase]
        out[phase] = {k: round(n / per, 1) for k, n in ops.items()}
        out[phase]["total"] = round(sum(ops.values()) / per, 1)
    return out


def _skip():
    if importlib.util.find_spec("numpy") is None:
        return "the benchmark suite's cells need numpy"
    recorded = json.loads(PIN_PATH.read_text())["python"]
    if interpreter() != recorded:
        return f"opcode counts are recorded on {recorded}; bytecode differs on {interpreter()}"
    return None


TABLES = (
    Table(
        PIN_PATH,
        rows={row: functools.partial(count_fresh, row) for row in ROWS},
        document=lambda rows: {"python": interpreter(), "workloads": rows},
        groups=("workloads",),
        skip=_skip,
        show=per_unit,
    ),
)


if __name__ == "__main__":
    if sys.argv[1:2] != ["--count"] or len(sys.argv) != 3:
        sys.exit("usage: opcode_pin.py --count ROW  (what tools/golden.py runs per row)")
    print(json.dumps(count(sys.argv[2])))
