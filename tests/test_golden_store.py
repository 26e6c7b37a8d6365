"""The identity store (``tools/golden.py``): every row of every declared
table recomputes to what its file records (``slow`` rows under ``pytest -m
slow``), each file holds its declared rows in the store's layout, and no
table is re-blessed until CHANGES.md says why, nor on an interpreter that
cannot check it."""

import dataclasses
import json

import pytest

from tools import golden

TABLES = golden.tables()


@pytest.mark.parametrize("table, name", [
    pytest.param(table, name, id=f"{table.name}/{name}",
                 marks=pytest.mark.slow if name in table.slow else ())
    for table in TABLES.values() for name in table.rows
])
def test_row_matches_the_store(table, name, request):
    if name in table.slow and "slow" not in request.config.getoption("markexpr"):
        pytest.skip("run with -m slow")
    if table.skip():
        pytest.skip(table.skip())
    assert golden.check(table, [name]) == []


@pytest.mark.parametrize("table", TABLES.values(), ids=TABLES)
def test_each_file_holds_its_declared_rows_in_the_store_layout(table):
    text = table.path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert golden.dumps(table, doc) == text
    if table.rows:
        assert list(doc[table.groups[0]] if table.groups else doc) == list(table.rows)


@pytest.mark.parametrize("table", TABLES.values(), ids=TABLES)
def test_rebless_refuses_and_writes_nothing_until_changes_names_the_file(
        table, tmp_path, monkeypatch):
    recorded = []  # the guard is under test, not the rows
    monkeypatch.setattr(golden, "record", lambda declared: recorded.append(declared) or {})
    monkeypatch.setattr(golden, "CHANGES_PATH", tmp_path / "CHANGES.md")
    probe = dataclasses.replace(table, path=tmp_path / table.path.name, skip=lambda: None)
    probe.path.write_bytes(table.path.read_bytes())

    golden.CHANGES_PATH.write_text(f"PR 1: re-recorded {table.path.name}.\nPR 2: nothing moved.\n")
    with pytest.raises(SystemExit, match=f"refusing: .* {table.path.name}"):
        golden.rebless(probe)
    golden.CHANGES_PATH.write_text(f"PR 1: moved what {table.path.name} records, and why.\n")
    with pytest.raises(SystemExit, match="refusing: not on this interpreter"):
        golden.rebless(dataclasses.replace(probe, skip=lambda: "not on this interpreter"))
    assert probe.path.read_bytes() == table.path.read_bytes() and not recorded

    golden.rebless(probe)
    assert recorded == [probe] and probe.path.read_bytes() != table.path.read_bytes()
