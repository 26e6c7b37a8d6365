"""Tier-1 smoke: the whole set, untraced and traced, at smoke size.

Asserts what the contract is about: every workload runs and checks its own
output, and the metric names printed are exactly those ``BENCHMARK.json``
declares, each with its unit.  No timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_smoke_set_matches_manifest(tmp_path):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "set.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "suite" / "run.py"),
         "--smoke", "--trace", "1", "--out", str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(out.read_text())

    assert list(result["workloads"]) == [w["name"] for w in manifest["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    kernels = {n: m["unit"] for n, m in result["kernels"].items()}
    assert kernels and set(kernels) < set(per_layer)
    for name, entry in result["workloads"].items():
        assert entry["end_to_end_run"]["correct"], name
        assert entry["per_layer_run"]["correct"], name
        assert {n: m["unit"] for n, m in entry["end_to_end"].items()} == end_to_end, name
        layer_units = {n: m["unit"] for n, m in entry["per_layer"].items()}
        assert {**layer_units, **kernels} == per_layer, name
        for metric, m in entry["end_to_end"].items():
            assert m["value"] > 0, (name, metric)
            assert f"  {metric} " in proc.stdout
    for metric in per_layer:
        assert f"  {metric} " in proc.stdout, metric

    compare = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "suite" / "run.py"),
         "--compare", str(out), str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=60,
    )
    assert compare.returncode == 0, compare.stdout[-2000:]
