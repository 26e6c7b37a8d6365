"""The reach census (``tools/census.py``, DESIGN.md §9.2) as a tier-1 gate:
every ``def`` under ``src/repro`` is listed in ``tests/census.json``, either
with the entry points that reach it or with the reason an unreached one
stays.  A function added without a re-run census that says
who calls it fails here; so does one deleted without it.  The census itself
takes minutes and runs in CI's ``census`` job; this reads the committed one.
"""

import inspect
import json
import os
import subprocess
import sys
import textwrap
import types

from tools import census as census_tool
from tools.census import CENSUS_PATH, REASONS, definitions

CENSUS = json.loads(CENSUS_PATH.read_text(encoding="utf-8"))


def test_every_definition_is_in_the_census():
    listed = CENSUS["definitions"]
    defs = definitions()
    unlisted = [key for key in defs if key not in listed]
    gone = [key for key in listed if key not in defs]
    assert not unlisted and not gone, (
        f"not in tests/census.json: {unlisted}; listed but no longer defined: "
        f"{gone} — re-run python -m tools.census --rebless"
    )
    assert list(listed) == list(defs), "tests/census.json is not in source order"


def test_each_definition_is_reached_or_kept_for_a_reason():
    known = set(CENSUS["entry_points"])
    known |= {ident.split(" ")[0] + " *" for ident in known}
    problems = []
    for key, entry in CENSUS["definitions"].items():
        if isinstance(entry, list):
            if not entry or not set(entry) <= known:
                problems.append(f"{key}: reached by {entry}")
        elif entry.get("keep") not in REASONS or not entry.get("why"):
            problems.append(f"{key}: kept for {entry}")
    assert not problems, "\n".join(problems)


def test_the_census_runs_what_a_user_can_run():
    entry_points = set(CENSUS["entry_points"])
    assert {"fig15", "fig15 --jobs 2", "fig14 --backend hybrid",
            "fig14 --trace --progress", "lbmatrix --quick"} <= entry_points
    assert {"examples/quickstart.py", "repro.hybrid.validate --quick",
            "repro.obs.export", "benchmark"} <= entry_points
    # A forked pool worker's reach is recorded: only a worker runs this.
    assert "fig15 --jobs 2" in CENSUS["definitions"]["repro.exec.executor:_pool_execute"]


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def test_every_def_maps_to_its_code_object():
    # A run's log names code objects by (file, first line, name); the
    # census maps them back through definitions().  Every function code
    # object a module compiles must land on one definition.
    by_code = {value: key for key, value in definitions().items()}
    pkg = census_tool.PKG
    for path in sorted(pkg.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        module = compile(source, str(path), "exec")
        rel = path.relative_to(pkg).as_posix()
        for code in _code_objects(module):
            if code.co_name.startswith("<") or not code.co_flags & inspect.CO_OPTIMIZED:
                continue  # module and class bodies, lambdas, comprehensions
            key = by_code.get((rel, code.co_firstlineno, code.co_name))
            assert key is not None, (rel, code.co_firstlineno, code.co_name)
            if sys.version_info >= (3, 11):
                assert key.split(":")[1].split("#")[0] == code.co_qualname, key


def _run_under_the_hook(tmp_path, body: str) -> list:
    """Run ``body`` in a fresh interpreter the way the census runs an
    entry point; return the log lines its processes wrote."""
    boot = tmp_path / "boot"
    boot.mkdir()
    (boot / "sitecustomize.py").write_text(
        census_tool._SITECUSTOMIZE.format(env=census_tool.LOG_ENV))
    log = tmp_path / "reach.log"
    src, root = census_tool.PKG.parent, census_tool.ROOT
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (boot, src, root))),
               **{census_tool.LOG_ENV: str(log)})
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(body)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return log.read_text().splitlines()


def test_a_forked_worker_that_leaves_through_os_exit_is_counted(tmp_path):
    lines = _run_under_the_hook(tmp_path, """
        import os
        from repro import units
        pid = os.fork()
        if pid == 0:
            units.to_us(1_000_000)  # only the child calls it
            os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
    """)
    assert "units.py\t{}\tto_us".format(definitions()["repro.units:to_us"][1]) in lines


def test_a_child_handed_its_own_pythonpath_is_counted(tmp_path):
    # The suite runs its children on PYTHONPATH=src alone.
    lines = _run_under_the_hook(tmp_path, f"""
        import os, subprocess, sys
        env = dict(os.environ, PYTHONPATH={str(census_tool.PKG.parent)!r})
        subprocess.run([sys.executable, "-c",
                        "from repro import units; units.to_us(1)"], env=env, check=True)
    """)
    assert any(line.endswith("\tto_us") for line in lines), lines


def test_dead_code_and_stale_reasons_are_problems(monkeypatch):
    monkeypatch.setitem(census_tool.KEEP, "repro.no_such_module", ("public", "nobody"))
    reached = {"fig15": {"repro.sim.engine:Simulator.run"}}
    doc, problems = census_tool.census(reached)
    assert doc["definitions"]["repro.sim.engine:Simulator.run"] == ["fig15"]
    assert "repro.sim.engine:Simulator.schedule: unreached, and no KEEP reason" in problems
    assert "KEEP['repro.no_such_module'] keeps nothing" in problems
    assert doc["definitions"]["repro.obs.flight:FlightRecorder.__init__"]["keep"] == "crash"


def test_a_figure_every_invocation_reaches_is_written_once():
    figures = {"fig14": ["fig14", "fig14 --quick"], "fig15": ["fig15", "fig15 --jobs 2"]}
    assert census_tool._compact(["fig14", "fig14 --quick", "fig15 --jobs 2"], figures) == [
        "fig14 *", "fig15 --jobs 2"]
