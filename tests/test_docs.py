"""Doc-rot guard: what DESIGN.md, the verify skill, the CI workflow and the
comments under ``src/repro`` name must exist — every ``tools/…py`` /
``benchmarks/…py`` / ``tests/…py`` path (and each ``::Class::test`` written
after one), every ``fncc-exp <name>`` and every ``UPPER_CASE.md`` document.
Sixteen passages once pointed at a bench CLI nobody had consulted for five
PRs.
"""

import re
from importlib import metadata
from pathlib import Path

import pytest

import repro
from repro.experiments.runner import _MODULES

ROOT = Path(__file__).resolve().parents[1]
SOURCES = {
    "DESIGN.md": [ROOT / "DESIGN.md"],
    "verify-skill": [ROOT / ".claude/skills/verify/SKILL.md"],
    "ci.yml": [ROOT / ".github/workflows/ci.yml"],
    "src/repro": sorted((ROOT / "src/repro").rglob("*.py")),
}

_PATH = re.compile(r"\b((?:tools|benchmarks|tests)/[\w./-]*\.py)((?:::\w+)*)")
_EXPERIMENT = re.compile(r"fncc-exp\s+([a-z][\w-]*)")
_DOCUMENT = re.compile(r"\b([A-Z][A-Z_]+\.md)\b")
#: Every markdown file name in the checkout (two docstrings cited an
#: ``EXPERIMENTS.md`` that was never in the tree).
DOCUMENTS = {
    p.name for p in ROOT.rglob("*.md") if ".git" not in p.relative_to(ROOT).parts
}


@pytest.mark.parametrize("group", SOURCES)
def test_named_paths_tests_and_experiments_exist(group):
    problems = []
    for source in SOURCES[group]:
        where = source.relative_to(ROOT)
        text = source.read_text(encoding="utf-8")
        for path, members in _PATH.findall(text):
            target = ROOT / path
            if not target.is_file():
                problems.append(f"{where}: {path}: no such file")
                continue
            body = target.read_text(encoding="utf-8")
            for name in filter(None, members.split("::")):
                if not re.search(rf"^\s*(?:def|class) {name}\b", body, re.M):
                    problems.append(f"{where}: {path} defines no {name}")
        for name in _EXPERIMENT.findall(text):
            if name not in _MODULES:
                problems.append(f"{where}: fncc-exp {name}: not an experiment")
        for name in sorted(set(_DOCUMENT.findall(text)) - DOCUMENTS):
            problems.append(f"{where}: {name}: no such document in the repo")
    assert not problems, "\n".join(problems)


def test_the_guard_sees_what_it_guards():
    """The scan is not vacuous: DESIGN.md names dozens of paths, the
    workflow runs experiments, and a path that is gone is reported."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    assert len(_PATH.findall(design)) >= 20
    ci = (ROOT / ".github/workflows/ci.yml").read_text(encoding="utf-8")
    assert {"lbmatrix", "faultmatrix", "fig14"} <= set(_EXPERIMENT.findall(ci))
    assert _DOCUMENT.findall("see EXPERIMENTS.md, DESIGN.md §1 and notes.md") == [
        "EXPERIMENTS.md", "DESIGN.md",
    ]
    assert "DESIGN.md" in DOCUMENTS and "EXPERIMENTS.md" not in DOCUMENTS
    assert _PATH.findall("see `tools/gone.py` and tests/x/test_y.py::TestZ::test_w") == [
        ("tools/gone.py", ""),
        ("tests/x/test_y.py", "::TestZ::test_w"),
    ]


_ROADMAP_CITE = re.compile(r"ROADMAP\s+(?:items?\s+)?(\d+)(?:\(([a-z])\))?")


def roadmap_items(text: str) -> dict:
    """ROADMAP.md's numbered items (``### N · title``) -> their lettered
    sub-items (a bold ``(x)`` opening a line of the item)."""
    items = {}
    for number, body in re.findall(r"^### (\d+) ·.*?\n(.*?)(?=^### |\Z)", text, re.M | re.S):
        items[int(number)] = set(re.findall(r"^(?:- )?\*\*\(([a-z])\)", body, re.M))
    return items


def stale_roadmap_citations(text: str, items: dict) -> list:
    """Each ``ROADMAP item N`` / ``N(x)`` in ``text`` that names no item,
    or a letter the item does not have."""
    stale = []
    for number, letter in _ROADMAP_CITE.findall(text):
        if int(number) not in items or (letter and letter not in items[int(number)]):
            stale.append(f"{number}({letter})" if letter else number)
    return stale


def test_roadmap_citations_name_items_that_exist():
    """Items get renumbered at every re-anchor; a citation of item 7(d)
    outlived the letter by four PRs."""
    items = roadmap_items((ROOT / "ROADMAP.md").read_text(encoding="utf-8"))
    assert {1, 2, 7, 10, 11} <= set(items) and {"a", "b", "c"} <= items[7]
    sources = [ROOT / "DESIGN.md", *sorted((ROOT / "src").rglob("*.py")),
               *sorted((ROOT / "tests").rglob("*.py")), *sorted((ROOT / "tools").rglob("*.py"))]
    sources.remove(Path(__file__).resolve())  # its own examples below
    problems = [
        f"{source.relative_to(ROOT)}: ROADMAP item {cite}: no such item in ROADMAP.md"
        for source in sources
        for cite in stale_roadmap_citations(source.read_text(encoding="utf-8"), items)
    ]
    assert not problems, "\n".join(problems)
    assert stale_roadmap_citations(
        "ROADMAP item 7(d), ROADMAP\nitem 1(a) and ROADMAP item 99", {1: {"a"}, 7: {"a"}}
    ) == ["7(d)", "99"]


def test_there_is_one_version():
    """``repro.__version__`` is the only literal: pyproject.toml reads it
    (it said 0.2.0 while the package said 1.0.0), and an installed
    distribution reports the same string."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]")[1].split("\n[")[0]
    assert 'dynamic = ["version"]' in project
    assert not re.search(r"^version\s*=", project, re.M)
    assert 'version = {attr = "repro.__version__"}' in pyproject
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
    try:
        installed = metadata.version("repro-fncc")
    except metadata.PackageNotFoundError:  # PYTHONPATH=src, not installed
        return
    assert installed == repro.__version__
