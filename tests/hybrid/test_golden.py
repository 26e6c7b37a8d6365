"""The waterfill's heap discipline on a pinned fluid pass (the pass itself
is a row of the identity store's ``golden_trajectory`` table)."""

from golden import TRAJECTORY_CELLS


def test_waterfill_heap_budget():
    """DESIGN.md §6 "Waterfill heap": 68.0 pops a waterfill on this pass
    when every link of every flow had an entry and every decrement pushed
    another, 16.4 with only binding entries.  The trajectory pin cannot see
    this number rot — a heap that holds more pops the same minima."""
    result = TRAJECTORY_CELLS["strict_1001"]()
    assert result.n_heap_pops <= 30 * result.n_waterfills
