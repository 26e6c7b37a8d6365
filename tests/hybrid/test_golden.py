"""Cross-commit pin on the hybrid backend's simulated output: every cell of
``golden_hybrid.json`` (recorded by ``golden.py`` from the commit before
background replay landed) must come out bit-identical — FCT fingerprint,
port-counter digest and phase stats."""

import json

import pytest

from golden import CELLS, GOLDEN_PATH, observe

GOLDEN = json.loads(GOLDEN_PATH.read_text())


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
