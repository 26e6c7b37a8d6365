"""Cross-commit pin on the hybrid backend's simulated output: every cell of
``golden_hybrid.json`` (recorded by ``golden.py`` from the commit before
background replay landed) must come out bit-identical — FCT fingerprint,
port-counter digest and phase stats — and every fluid pass of
``golden_trajectory.json`` (recorded from the commit before the waterfill
heap kept only binding entries) must commit the same floats in the same
order."""

import json

import pytest

from golden import (
    CELLS,
    GOLDEN_PATH,
    TRAJECTORY_CELLS,
    TRAJECTORY_PATH,
    observe,
    observe_trajectory,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())
TRAJECTORY = json.loads(TRAJECTORY_PATH.read_text())


def test_table_covers_every_cell():
    assert sorted(GOLDEN) == sorted(CELLS)
    assert GOLDEN["default_refining"]["stats"]["refine_rounds"] >= 1


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_golden(name):
    got = observe(CELLS[name]())
    want = GOLDEN[name]
    assert got["stats"] == want["stats"]
    assert got["portstats_sha1"] == want["portstats_sha1"]
    assert got["fct_fingerprint"] == want["fct_fingerprint"]


def test_trajectory_table_covers_every_cell():
    assert sorted(TRAJECTORY) == sorted(TRAJECTORY_CELLS)


@pytest.mark.parametrize("name", sorted(TRAJECTORY_CELLS))
def test_pass_matches_golden_trajectory(name):
    assert observe_trajectory(TRAJECTORY_CELLS[name]()) == TRAJECTORY[name]


def test_waterfill_heap_budget():
    """DESIGN.md §6 "Waterfill heap": 68.0 pops a waterfill on this pass
    when every link of every flow had an entry and every decrement pushed
    another, 16.4 with only binding entries.  The trajectory pin cannot see
    this number rot — a heap that holds more pops the same minima."""
    result = TRAJECTORY_CELLS["strict_1001"]()
    assert result.n_heap_pops <= 30 * result.n_waterfills
