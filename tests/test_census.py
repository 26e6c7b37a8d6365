"""The census (``tools/census.py``, DESIGN.md §9.2) as a tier-1 gate: every
``def`` and every defaulted parameter under ``src/repro`` is listed in
``tests/census.json``, so one added or deleted without a re-run census
fails here; and the rules and the tracer the census runs on, on fixtures.
"""

import ast
import dataclasses
import inspect
import json
import subprocess
import sys
import textwrap
import types

import pytest

from tools import census as census_tool
from tools import golden
from tools import trace as tracing
from tools.census import CENSUS_PATH, REASONS, definitions, knobs

CENSUS = json.loads(CENSUS_PATH.read_text(encoding="utf-8"))


def _listed_in_source_order(group: str, current: dict) -> None:
    listed = CENSUS[group]
    unlisted = [key for key in current if key not in listed]
    gone = [key for key in listed if key not in current]
    assert not unlisted and not gone, (
        f"{group} not in tests/census.json: {unlisted}; listed but no longer defined: "
        f"{gone} — re-bless with python -m tools.golden --rebless census")
    assert list(listed) == list(current), f"tests/census.json {group} are not in source order"


def _known() -> set:
    """The entry points a reach list may name, ``<figure> *`` included."""
    known = set(CENSUS["entry_points"])
    return known | {ident.split(" ")[0] + " *" for ident in known}


def test_every_definition_is_in_the_census():
    _listed_in_source_order("definitions", definitions())


def test_every_knob_is_in_the_census():
    _listed_in_source_order("knobs", knobs())
    bad = {key: by for key, by in CENSUS["knobs"].items() if not set(by) <= _known()}
    assert not bad, bad


def test_knobs_are_the_defaulted_parameters_of_unnested_defs():
    params = knobs()
    assert params["repro.lb.flowlet:FlowletLB.__init__(gap_ps)"] == (
        "repro.lb.flowlet:FlowletLB.__init__", "gap_ps")
    assert "repro.lb.flowlet:FlowletLB.__init__(self)" not in params
    assert "repro.sim.rng:stable_hash64(parts)" not in params  # *args: no default
    # A closure's defaults bind a value per closure; no caller sets them.
    assert not [key for key in params if "<locals>" in key]


def test_each_definition_is_reached_or_kept_for_a_reason():
    known = _known()
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
    assert {"fig15", "fig15 --jobs 2", "fig14 --quick",
            "fig14 --trace --progress", "lbmatrix --quick"} <= entry_points
    assert not [ident for ident in entry_points if "--backend" in ident]
    assert {"examples/quickstart.py", "repro.hybrid.validate --quick",
            "repro.obs.export", "benchmark"} <= entry_points
    # A forked pool worker's reach is recorded: only a worker runs this.
    assert "fig15 --jobs 2" in CENSUS["definitions"]["repro.exec.executor:_pool_execute"]


def test_a_tree_edited_during_the_run_is_refused_and_nothing_is_written(tmp_path, monkeypatch):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    module = pkg / "spare.py"
    module.write_text("def spare():\n    return 1\n")
    monkeypatch.setattr(census_tool, "PKG", pkg)

    def run():  # the entry points run; meanwhile someone edits a module
        module.write_text("def spare():\n    return 2\n")
        return {"benchmark": set()}, set(), {}

    monkeypatch.setattr(census_tool, "run", run)
    changes = tmp_path / "CHANGES.md"
    changes.write_text("census.json moved: a def was deleted\n")
    monkeypatch.setattr(golden, "CHANGES_PATH", changes)
    table = dataclasses.replace(census_tool.CENSUS, path=tmp_path / "census.json")
    table.path.write_text("{}\n")
    with pytest.raises(SystemExit) as exc:
        golden.rebless(table)
    assert "src/repro changed while its entry points ran" in str(exc.value.code)
    assert table.path.read_text() == "{}\n"


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


def _run_under_the_hook(tmp_path, body: str, target="tools.census:trace_this_process",
                        **env) -> list:
    """Run ``body`` in a fresh interpreter the way the census runs an entry
    point (or its reason tests); return the log lines its processes wrote."""
    log = tmp_path / "reach.log"
    env = tracing.child_env(tmp_path, target, **{census_tool.LOG_ENV: str(log)}, **env)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(body)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return log.read_text().splitlines()


def test_a_forked_worker_that_leaves_through_os_exit_is_counted(tmp_path):
    test = "tests/test_units.py::TestTimeConversions::test_us_round_trip"
    fork = f"""
        import os
        from repro import units
        os.environ["PYTEST_CURRENT_TEST"] = "{test} (call)"  # as pytest sets it
        pid = os.fork()
        if pid == 0:
            units.to_us(1_000_000)  # only the child calls it
            os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
    """
    lines = _run_under_the_hook(tmp_path, fork)
    assert "units.py\t{}\tto_us".format(definitions()["repro.units:to_us"][1]) in lines
    # In the reason tests, the child's line is tagged with the test it ran in.
    (line,) = census_tool.body_lines(units_to_us_code())
    (tmp_path / "reasons").mkdir()
    (tmp_path / "reasons" / "lines").write_text(f"units.py\t{line}\n")
    lines = _run_under_the_hook(tmp_path / "reasons", fork, "tools.census:trace_reason_lines",
                                **{census_tool.REASONS_ENV: str(tmp_path / "reasons" / "lines")})
    assert lines == [f"units.py\t{line}\t{test}"]


def test_a_child_handed_its_own_pythonpath_is_counted(tmp_path):
    # The suite runs its children on PYTHONPATH=src alone.
    lines = _run_under_the_hook(tmp_path, f"""
        import os, subprocess, sys
        env = dict(os.environ, PYTHONPATH={str(census_tool.PKG.parent)!r})
        subprocess.run([sys.executable, "-c",
                        "from repro import units; units.to_us(1)"], env=env, check=True)
    """)
    assert any(line.endswith("\tto_us") for line in lines), lines


def test_a_knob_is_logged_by_the_first_call_that_turns_it(tmp_path):
    first = definitions()["repro.cc.fncc:FnccConfig.__init__"][1]
    base = definitions()["repro.cc.hpcc:HpccConfig.__init__"][1]
    lines = _run_under_the_hook(tmp_path, """
        from repro.cc.fncc import FnccConfig
        FnccConfig()                                   # defaults
        FnccConfig(alpha=float(str(1.05)))             # an equal float: no change
        FnccConfig(lhcs_enabled=1)                     # equal, but an int
        FnccConfig(eta=0.5)                            # handed on
        FnccConfig(beta=0.5)
        FnccConfig(beta=0.6)                           # already logged
    """)
    knob_lines = [line for line in lines if line.count("\t") == 3]
    assert knob_lines == [
        f"cc/fncc.py\t{first}\t__init__\tlhcs_enabled",
        f"cc/hpcc.py\t{base}\t__init__\teta",
        f"cc/fncc.py\t{first}\t__init__\tbeta",
    ]


def test_the_census_records_which_entry_points_turn_a_knob():
    reached = {"fig15": {"repro.lb.flowlet:FlowletLB.__init__(gap_ps)"},
               "fig15 --jobs 2": {"repro.lb.flowlet:FlowletLB.__init__(gap_ps)"},
               "benchmark": set()}
    doc, _ = census_tool.census(reached)
    assert doc["knobs"]["repro.lb.flowlet:FlowletLB.__init__(gap_ps)"] == ["fig15 *"]
    assert doc["knobs"]["repro.routing.spanning_tree:install_spanning_trees(seed)"] == []
    assert list(doc["knobs"]) == list(knobs())


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


# -- the line census ---------------------------------------------------------

FIXTURE = '''\
def check(x):
    if x < 0:
        note = "negative"
        raise ValueError(note)
    if x > 100:
        return 100
    return x


def spare(x):
    if x is None:  # census: a caller may pass None — tests/test_census.py::test_an_inline_census_reason_is_accepted
        return 0
    return [y for y in (x, x)
            if y]
'''


def _unreached(source, ran, inherited=None):
    return census_tool.unreached(source, "fx", "fx.py", set(ran), inherited or {})


def test_a_def_s_lines_are_its_body_and_its_comprehensions():
    lines = _unreached(FIXTURE, ())
    # The def lines report no line event; the comprehension's lines are spare's.
    assert lines["fx:check"] == {1: None, 2: "crash", 3: "crash", 4: None, 5: None, 6: None}
    assert set(lines["fx:spare"]) == {1, 2, 3, 4}


def test_an_unreached_raise_branch_is_a_crash_path():
    assert _unreached(FIXTURE, {2, 5, 6, 7, 11, 12, 13, 14})["fx:check"] == {
        2: "crash", 3: "crash"}


def test_an_unreached_plain_branch_has_no_reason():
    assert _unreached(FIXTURE, {2, 5, 7, 11, 12, 13, 14})["fx:check"] == {
        2: "crash", 3: "crash", 5: None}


def test_an_inline_census_reason_is_accepted():
    spare = _unreached(FIXTURE, {2, 5, 6, 7, 11, 13, 14})["fx:spare"]
    reason = "a caller may pass None — tests/test_census.py::test_an_inline_census_reason_is_accepted"
    assert spare == {2: reason}
    assert census_tool._names_a_test(reason)
    assert not census_tool._names_a_test("a caller may — tests/test_census.py::test_no_such_test")
    # Alone on the line above, it covers the statement below it.
    above = FIXTURE.replace("    if x is None:  # census:", "    # census:").replace(
        "test_an_inline_census_reason_is_accepted\n", "test_an_inline_census_reason_is_accepted\n"
        "    if x is None:\n", 1)
    assert _unreached(above, {2, 5, 6, 7, 12, 14, 15})["fx:spare"] == {3: reason}


def test_a_reason_may_not_cover_a_def_or_a_class():
    why = "# census: spare code — tests/test_census.py::test_a_reason_may_not_cover_a_def_or_a_class"
    source = textwrap.dedent(f'''\
        {why}
        def spare(x):
            if x:
                return 0
            return 1


        class Spare:  {why}
            pass


        def branch(x):
            {why}
            if x:
                def inner():
                    return 0
                return inner
            return None


        def other(x):
            if x:  {why}
                return None
            else:
                def inner(): return 0
        ''')
    inline = list(census_tool._inline_reasons(ast.parse(source), source))
    assert [at for at, why, _, _ in inline if why is None] == [1, 8, 13]
    # A def in the else the reason does not cover is no bar to its body.
    assert census_tool._source_reasons(ast.parse(source), source) == {23: why.removeprefix("# census: ")}
    assert _unreached(source, {3, 5})["fx:spare"] == {2: None}


BRANCHES = '''\
def pick(x):
    # census: a negative x — tests/test_census.py::test_a_reason_excuses_one_block
    if x < 0:
        y = -x
    else:
        y = x
    try:  # census: an abs — tests/test_census.py::test_a_reason_excuses_one_block
        y = abs(y)
    except TypeError:  # census: a failing abs — tests/test_census.py::test_a_reason_excuses_one_block
        y = 0
    return y
'''


def test_a_reason_excuses_one_block():
    why = "— tests/test_census.py::test_a_reason_excuses_one_block"
    negative, guarded, failing = (f"{reason} {why}" for reason in ("a negative x", "an abs", "a failing abs"))
    # Nothing ran: the if's header and else, the try line and the return are reported.
    assert _unreached(BRANCHES, ())["fx:pick"] == {
        2: None, 3: negative, 5: None, 6: None, 7: guarded, 8: failing, 9: failing, 10: None}
    # So the hook traces them: the source excuses the blocks alone.
    assert census_tool._source_reasons(ast.parse(BRANCHES), BRANCHES) == {
        4: negative, 8: guarded, 9: failing, 10: failing}
    # Each reason's test must run the first line of its block: for the
    # except clause, of its body; the header runs for any exception.
    assert [(covered, first) for _, _, covered, first in census_tool._inline_reasons(
        ast.parse(BRANCHES), BRANCHES)] == [([4], 4), ([8], 8), ([9, 10], 10)]


def test_a_kept_def_s_lines_inherit_its_reason():
    assert _unreached(FIXTURE, {11, 13, 14}, {"fx:check": "oracle"})["fx:check"] == {
        1: "oracle", 2: "crash", 3: "crash", 4: "oracle", 5: "oracle", 6: "oracle"}
    assert census_tool._inherited("repro.shard.engine:ShardEngine.run", ["benchmark"]) == "benchmark"
    assert census_tool._inherited("repro.faults.audit:pfc_frame_totals", ["fig3"]) == "oracle"
    assert census_tool._inherited("repro.sim.engine:Simulator.run", ["fig3"]) is None


def test_moving_lines_in_one_def_changes_no_other_def_s_result():
    ran = {2, 5, 7, 11, 13, 14}
    before = _unreached(FIXTURE, ran)
    moved = FIXTURE.replace("def check(x):\n", "def check(x):\n    x = int(x)\n")
    after = _unreached(moved, {2} | {line + 1 for line in ran})
    assert after["fx:spare"] == before["fx:spare"] == {2: before["fx:spare"][2]}
    assert after["fx:check"] != before["fx:check"]


def test_a_line_is_logged_the_first_time_a_process_runs_it(tmp_path):
    first = definitions()["repro.units:to_us"][1]
    lines = _run_under_the_hook(tmp_path, """
        from repro import units
        units.to_us(1_000_000)
        units.to_us(2_000_000)
    """)
    ran = [line for line in lines if line.count("\t") == 1 and line.startswith("units.py\t")]
    body = census_tool.body_lines(units_to_us_code())
    assert {int(line.split("\t")[1]) for line in ran} >= body
    assert len(ran) == len(set(ran))  # each once
    assert all(line > first for line in body)


def units_to_us_code():
    from repro import units
    return units.to_us.__code__


def test_a_reason_whose_test_does_not_run_its_line_is_refused(monkeypatch):
    (line,) = census_tool.body_lines(units_to_us_code())
    runs = "tests/test_units.py::TestTimeConversions::test_us_round_trip"
    skips = "tests/test_units.py::TestTimeConversions::test_ms"
    targets = [("units.py", line, runs), ("units.py", line, skips)]
    monkeypatch.setattr(census_tool, "entry_points", lambda tmp: [])
    monkeypatch.setattr(census_tool, "reason_targets", lambda: targets)
    _, _, by_test = census_tool.run()
    assert by_test == {("units.py", line): {runs}}
    assert census_tool.reason_problems(targets, by_test) == [
        f"src/repro/units.py:{line}: its '# census:' reason's test does not run it: {skips}"]
