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
