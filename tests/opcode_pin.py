"""Exact interpreter work, per package: what ``opcode_pin.json`` records
and how.

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
earlier test cached moves a count.

The count is exact and repeats run to run (and across ``PYTHONHASHSEED``),
so ``test_opcode_pin.py`` demands equality: a non-perf change shows it
moved no layer's work in seconds, and a perf change names the package whose
count it moved.  Bytecode differs between CPython versions, so the table
records the one it was counted on and the test skips on any other.  A
change that moves a count writes the per-package before and after into
CHANGES.md first — the recorder refuses to write until the newest
CHANGES.md entry names the table::

    python tests/opcode_pin.py --rebless
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PIN_PATH = Path(__file__).with_name("opcode_pin.json")
CHANGES_PATH = ROOT / "CHANGES.md"
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
    for p in (ROOT / "src", ROOT):
        if str(p) not in sys.path:
            sys.path.insert(0, str(p))
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
    """:func:`count` in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--count", workload],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: counting failed\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def per_unit(row: dict) -> dict:
    """Opcodes per unit of work, per package and in total."""
    ops = row["opcodes"]
    out = {k: round(n / row["work"], 1) for k, n in ops.items()}
    out["total"] = round(sum(ops.values()) / row["work"], 1)
    return out


if __name__ == "__main__":
    if sys.argv[1:2] == ["--count"] and len(sys.argv) == 3:
        print(json.dumps(count(sys.argv[2])))
        sys.exit(0)
    if sys.argv[1:] != ["--rebless"]:
        sys.exit(__doc__)
    if PIN_PATH.name not in CHANGES_PATH.read_text().rstrip().splitlines()[-1]:
        sys.exit(
            f"refusing: the newest CHANGES.md entry does not name {PIN_PATH.name}; "
            "write down which package's count moved and why, then re-bless"
        )
    table = {"python": interpreter(), "workloads": {}}
    for workload in WORKLOADS:
        row = table["workloads"][workload] = count_fresh(workload)
        print(f"{workload}: {per_unit(row)}")
    PIN_PATH.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {PIN_PATH}")
