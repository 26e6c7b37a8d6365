"""Exact interpreter work, per package: the ``opcode_pin`` table of the
identity store (``tools/golden.py``).

For the smoke cell of each in-process benchmark workload — the cell
``python tools/profile.py --workload W --opcodes`` counts, after the same
warm-up — the table holds the cell's units of work and the bytecode
instructions it executed, counted by ``tools/profile.py``'s
``count_opcodes`` and split by the ``src/repro`` package whose code ran
them (a top-level module such as ``units.py`` is its own bucket).
Everything else — the suite's own code, the standard library — is one
bucket, ``other``.  Code of installed packages (numpy, in the suite's
reduction) is left out: its version is the environment's, not the
commit's.  Each workload is counted in a fresh interpreter, so nothing an
earlier test cached moves a count.  The count is exact and repeats run to
run, so a change that moves it writes the per-package before and after
into CHANGES.md before it re-blesses; a failing row and the re-bless show
both per unit of work (:func:`per_unit`).  Bytecode differs between CPython
versions, so the table records the one it was counted on, and its rows are
checked and re-blessed on no other.
"""

import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from tools.golden import Table

ROOT = Path(__file__).resolve().parents[1]
PIN_PATH = Path(__file__).with_name("opcode_pin.json")
PKG = ROOT / "src" / "repro"

#: The workloads whose cell runs in the counting process.
WORKLOADS = ("websearch_fattree", "incast_lasthop", "hybrid_fluid_5k")


def interpreter() -> str:
    """The bytecode dialect a count belongs to."""
    return f"{sys.implementation.name}-{sys.version_info[0]}.{sys.version_info[1]}"


def bucket(filename: str) -> str:
    """``src/repro/<package>/...`` -> ``<package>``; anything else -> ``other``."""
    try:
        rel = Path(filename).resolve().relative_to(PKG)
    except ValueError:
        return "other"
    return rel.parts[0].removesuffix(".py")


def installed(filename: str) -> bool:
    """Whether ``filename`` belongs to an installed third-party package."""
    parts = Path(filename).parts
    return "site-packages" in parts or "dist-packages" in parts


def count(workload: str) -> dict:
    """Warm up, then count one smoke cell of ``workload`` in this process."""
    from benchmarks.suite.cells import IMPL
    from benchmarks.suite.specs import SMOKE, sub_seed
    from benchmarks.suite.trace import Spans
    from tools.profile import count_opcodes

    impl, off = IMPL[workload], Spans(False)
    impl.warmup(SMOKE[workload], off)
    cell, counts = count_opcodes(lambda: impl.cell(SMOKE[workload], sub_seed(1, 0), off))
    assert not cell["problems"], cell["problems"]
    by_package: dict = {}
    for code, n in counts.items():
        if installed(code.co_filename):
            continue
        key = bucket(code.co_filename)
        by_package[key] = by_package.get(key, 0) + n
    return {"work": cell["work"], "opcodes": dict(sorted(by_package.items()))}


def count_fresh(workload: str) -> dict:
    """:func:`count` in a new interpreter, given the package, the suite and the store."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--count", workload],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((str(ROOT), str(ROOT / "src")))},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: counting failed\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def per_unit(row):
    """How a moved row is shown: opcodes per unit of work, per package and
    in total (anything else, such as the ``python`` field, as it is)."""
    if not isinstance(row, dict):
        return row
    ops, work = row["opcodes"], row["work"]
    per = {k: round(n / work, 1) for k, n in ops.items()}
    return {"work": work, **per, "total": round(sum(ops.values()) / work, 1)}


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
        rows={workload: functools.partial(count_fresh, workload) for workload in WORKLOADS},
        document=lambda rows: {"python": interpreter(), "workloads": rows},
        groups=("workloads",),
        skip=_skip,
        show=per_unit,
    ),
)


if __name__ == "__main__":
    if sys.argv[1:2] != ["--count"] or len(sys.argv) != 3:
        sys.exit("usage: opcode_pin.py --count WORKLOAD  (what tools/golden.py runs per row)")
    print(json.dumps(count(sys.argv[2])))
