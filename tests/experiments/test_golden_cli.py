"""Cross-commit pin on what the figures print: every row of
``golden_cli.json`` (recorded by ``golden_cli.py`` from the commit before
numpy left the figure path) must come out byte-identical.  The cheap rows
run in tier-1; the rest of the catalogue runs under ``pytest -m slow``."""

import json

import pytest

from golden_cli import GOLDEN_PATH, SLOW_ROWS, TIER1_ROWS, stdout_sha1

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_table_covers_every_row():
    assert sorted(GOLDEN) == sorted(TIER1_ROWS + SLOW_ROWS)


@pytest.mark.parametrize("row", TIER1_ROWS)
def test_figure_stdout_matches_golden(row):
    assert stdout_sha1(row) == GOLDEN[row]


@pytest.mark.slow
@pytest.mark.parametrize("row", SLOW_ROWS)
def test_slow_figure_stdout_matches_golden(row, request):
    if "slow" not in request.config.getoption("markexpr"):
        pytest.skip("run with -m slow")
    assert stdout_sha1(row) == GOLDEN[row]
