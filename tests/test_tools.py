"""Smoke tests for the run-by-path utilities under ``tools/``: each must
work from a bare checkout — any working directory, no ``PYTHONPATH``, no
install — because that is how DESIGN.md tells a reader to run them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# tools/profile.py runs a cell of benchmarks/suite, whose specs.py uses
# dataclass(kw_only=True): the suite (not repro, not the tool) is 3.10+.
needs_suite = pytest.mark.skipif(
    sys.version_info < (3, 10), reason="benchmarks/suite needs python >= 3.10"
)


def _run_tool(script, *args, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / script), *args],
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=300,
    )


@needs_suite
def test_profile_runs_a_suite_cell_from_a_bare_checkout(tmp_path):
    proc = _run_tool("profile.py", "--workload", "incast_lasthop", "--top", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    header = proc.stdout.splitlines()[0]
    # The cell is the suite's: 32 senders under each of three CCs.
    assert header.startswith("# workload=incast_lasthop work=")
    assert header.endswith("completed=96/96")
    assert "== top 3 by cumulative ==" in proc.stdout
    assert "== top 3 by tottime ==" in proc.stdout
    assert "incast_cell" in proc.stdout  # the profile is of that cell


@needs_suite
def test_profile_opcodes_counts_the_smoke_cell_and_repeats_exactly(tmp_path):
    runs = [
        _run_tool(
            "profile.py", "--workload", "incast_lasthop", "--opcodes", "--top", "5",
            cwd=tmp_path,
        )
        for _ in range(2)
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr[-2000:]
    out = runs[0].stdout
    lines = out.splitlines()
    # The smoke cell: 4 senders under each of three CCs.
    assert lines[0].startswith("# workload=incast_lasthop (smoke cell) work=")
    assert lines[0].endswith("completed=12/12")
    assert lines[1].startswith("# executed opcodes: ") and "per unit of work" in lines[1]
    assert "== top 5 functions by executed opcodes ==" in out
    # "(Port._tx_deliver)" on 3.11+, the bare name where co_qualname is absent.
    assert "src/repro/net/port.py" in out and "_tx_deliver)" in out
    # A count, not a timing: the second run prints the same bytes.
    assert runs[1].stdout == out

