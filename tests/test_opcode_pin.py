"""Exact interpreter work, pinned: each in-process workload's smoke cell
must execute exactly the bytecode ``opcode_pin.json`` records, package by
package (``opcode_pin.py`` says what is counted and how to re-bless)."""

import json

import pytest

from opcode_pin import PIN_PATH, WORKLOADS, count_fresh, interpreter, per_unit

PIN = json.loads(PIN_PATH.read_text())

# The suite's cells reduce their slowdowns with numpy.
pytest.importorskip("numpy", reason="the benchmark suite's cells need numpy")

pytestmark = pytest.mark.skipif(
    interpreter() != PIN["python"],
    reason=f"opcode counts are recorded on {PIN['python']}; bytecode differs "
    f"on {interpreter()}",
)


def test_table_covers_every_workload():
    assert sorted(PIN["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_opcodes_per_unit_of_work_match_the_table(workload):
    want = PIN["workloads"][workload]
    got = count_fresh(workload)
    assert got["work"] == want["work"]
    assert got["opcodes"] == want["opcodes"], (
        f"per unit of work, recorded {per_unit(want)}, now {per_unit(got)}"
    )
