"""Smoke tests for the run-by-path utilities under ``tools/``: each must
work from a bare checkout — any working directory, no ``PYTHONPATH``, no
install — because that is how DESIGN.md tells a reader to run them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_tool(script, *args, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / script), *args],
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=300,
    )


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


def test_tie_report_writes_one_regime_from_a_bare_checkout(tmp_path):
    out = tmp_path / "ties.json"
    proc = _run_tool(
        "tie_report.py", "--scenario", "pfc_dumbbell", "--out", str(out), cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(out.read_text())
    assert report["schema"] == "fncc-tie-report/v1"
    assert list(report["scenarios"]) == ["pfc_dumbbell"]
    regime = report["scenarios"]["pfc_dumbbell"]
    assert 0 < regime["tied_pops"] < regime["total_pops"]
    assert regime["site_pairs"] == len(regime["sites"]) > 0
    # Same seeded regime, same census: the committed map is reproducible.
    with open(ROOT / "benchmarks" / "TIE_REPORT.json") as fh:
        assert regime == json.load(fh)["scenarios"]["pfc_dumbbell"]
