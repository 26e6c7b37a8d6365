"""The reach and value census (``tools/census.py``, DESIGN.md §9.2) as a
tier-1 gate: every ``def`` under ``src/repro`` is listed in
``tests/census.json``, either with the entry points that reach it or with
the reason an unreached one stays, and so is every defaulted parameter,
with the entry points that pass it another value.  A function or keyword
added without a re-run census that says who calls or sets it fails here;
so does one deleted without it.  The census itself takes minutes and runs
in CI's ``census`` job; this reads the committed one.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
import textwrap
import types

from tools import census as census_tool
from tools.census import CENSUS_PATH, REASONS, definitions, knobs

CENSUS = json.loads(CENSUS_PATH.read_text(encoding="utf-8"))


def test_every_definition_is_in_the_census():
    listed = CENSUS["definitions"]
    defs = definitions()
    unlisted = [key for key in defs if key not in listed]
    gone = [key for key in listed if key not in defs]
    assert not unlisted and not gone, (
        f"not in tests/census.json: {unlisted}; listed but no longer defined: "
        f"{gone} — re-bless with python -m tools.golden --rebless census"
    )
    assert list(listed) == list(defs), "tests/census.json is not in source order"


def test_every_knob_is_in_the_census():
    listed = CENSUS["knobs"]
    params = knobs()
    unlisted = [key for key in params if key not in listed]
    gone = [key for key in listed if key not in params]
    assert not unlisted and not gone, (
        f"defaulted parameters not in tests/census.json: {unlisted}; listed but "
        f"no longer defined: {gone} — re-bless with python -m tools.golden --rebless census"
    )
    assert list(listed) == list(params), "tests/census.json knobs are not in source order"
    known = set(CENSUS["entry_points"])
    known |= {ident.split(" ")[0] + " *" for ident in known}
    bad = {key: by for key, by in listed.items() if not set(by) <= known}
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
    (boot / "sitecustomize.py").write_text(census_tool._SITECUSTOMIZE)
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
        ''')
    reasons, refused = census_tool._source_reasons(ast.parse(source), source)
    assert refused == [1, 8, 13]
    assert reasons == {}
    assert _unreached(source, {3, 5})["fx:spare"] == {2: None}


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


def test_a_reason_whose_test_does_not_run_its_line_is_refused():
    (line,) = census_tool.body_lines(units_to_us_code())
    runs = "tests/test_units.py::TestTimeConversions::test_us_round_trip"
    skips = "tests/test_units.py::TestTimeConversions::test_ms"
    problems = census_tool.reason_problems([("units.py", line, runs), ("units.py", line, skips)])
    assert problems == [
        f"src/repro/units.py:{line}: its '# census:' reason's test does not run it: {skips}"]
