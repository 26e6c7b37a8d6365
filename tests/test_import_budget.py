"""The cold-start budget as an invariant (DESIGN.md §5.4): a process that
runs a paper figure loads none of numpy, scipy and networkx, and scipy may
be absent altogether; and importing a ``repro`` module loads that module's
own graph, so ``import repro`` loads the root alone, ``--list`` no figure
module, and a forked worker finds in its parent every module it runs.
Checked on ``sys.modules`` in fresh interpreters — a
property of the import graph, not a timing.  A forked pool or shard worker
starts with its parent's modules, so those probes start their group from
a fresh interpreter holding the CLI's import graph, never from this
process."""

import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(__file__).resolve().parents[1] / "src")


def heavy_loaded() -> list:
    """Which of the deferred libraries this process has imported."""
    heavy = {"numpy", "scipy", "networkx"}
    return sorted({m.split(".")[0] for m in sys.modules} & heavy)


#: heavy_loaded() for a probe: its workers call it before REPORT runs.
HEAVY = "import json, sys\n" + inspect.getsource(heavy_loaded)

#: Appended to every probe: its last stdout line is heavy_loaded() as JSON.
REPORT = HEAVY + "print(json.dumps(heavy_loaded()))\n"

#: A worker body resolved by name in a forked worker, which inherits the
#: probe's ``__main__``; a spawned one could not import it.
FORK_ONLY = pytest.mark.skipif(
    sys.platform != "linux", reason="the probe's workers are forked"
)

#: k=4 fat-tree with ECMP installed, one flow launched and drained: the
#: packet path end to end (topology, routing tables, base RTT, transport).
ONE_FLOW = """
from repro.experiments.common import build_cc_env, launch_flows
from repro.sim.engine import Simulator
from repro.topo import fattree
from repro.transport.flow import Flow

env = build_cc_env("fncc")
sim = Simulator()
topo = fattree(sim, k=4, switch_config=env.switch_config)
launch_flows(topo, [Flow(0, 0, 15, 20_000)], env)
sim.run()
assert topo.hosts[15].receivers[0].completed
"""

#: A clean install without the ``analysis`` extra: importing scipy fails.
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
"""

#: Importing numpy fails: whatever still runs does not need it.
NO_NUMPY = """
import sys
sys.modules["numpy"] = None
"""


#: A probe report: the ``repro`` modules the probe ended up with.
REPRO_REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
)


def run_probe(*parts: str, report: str = REPORT) -> list:
    """Run the concatenated snippets in a fresh interpreter; returns what
    ``report`` prints last (by default the deferred libraries it ended up
    with)."""
    code = "\n".join(textwrap.dedent(part) for part in (*parts, report))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_process_runs_a_flow_without_scipy_or_networkx():
    assert run_probe("import repro.experiments.runner", ONE_FLOW) == []


def test_spawn_worker_imports_run_a_flow_without_scipy_or_networkx():
    # What a sweep worker and a shard worker import before their first cell.
    assert run_probe("import repro.exec.executor, repro.shard.runtime", ONE_FLOW) == []


def test_a_flow_runs_and_a_slowdown_table_prints_without_numpy():
    body = """
    from repro.experiments.fct_experiment import FctResult, format_panel
    from repro.metrics.fct import SIZE_BINS_WEBSEARCH, FctCollector

    sim = Simulator()
    topo = fattree(sim, k=4, switch_config=env.switch_config)
    collector = FctCollector(topo)
    launch_flows(topo, [Flow(0, 0, 15, 20_000)], env)
    sim.run()
    result = FctResult("fncc", "websearch", collector, SIZE_BINS_WEBSEARCH, 1, sim)
    text = format_panel({"fncc": result}, "p99", "one flow")
    header, row = text.splitlines()[1:3]
    assert header.split()[:3] == ["cc", "10K", "20K"], text
    slowdown = collector.records[0].slowdown
    assert row.split()[:3] == ["fncc", "-", f"{slowdown:.2f}"], text
    assert collector.slowdowns() == [slowdown]
    """
    run_probe(NO_NUMPY, "import repro.experiments.runner", ONE_FLOW, body)


def test_jobs1_map_does_not_import_the_process_pool():
    # executor.py's docstring: "jobs=1 never touches multiprocessing".
    body = """
    import sys
    from repro.exec import RunSpec, SweepExecutor

    specs = [RunSpec(fn="builtins:dict", kwargs={"cell": i}) for i in range(2)]
    results = SweepExecutor(jobs=1).map(specs)
    assert [r.value for r in results] == [{"cell": 0}, {"cell": 1}]
    loaded = {"multiprocessing", "concurrent.futures.process"} & set(sys.modules)
    assert not loaded, loaded
    """
    run_probe("import repro.experiments.runner", body)


def test_the_graph_view_is_what_loads_networkx():
    assert run_probe("import repro.experiments.runner", ONE_FLOW, "topo.graph") == [
        "networkx"
    ]


def test_fig15_jobs2_parent_loads_neither():
    body = """
    import contextlib, io
    from repro.experiments.runner import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["fig15", "--jobs", "2", "--seed", "1"]) == 0
    assert "completed flows: {'dcqcn': 300, 'hpcc': 300, 'fncc': 300}" in out.getvalue()
    """
    assert run_probe(body) == []


@FORK_ONLY
def test_fig15_cell_in_a_pool_worker_loads_neither():
    body = """
    import repro.experiments.runner
    from repro.exec import RunSpec, SweepExecutor

    def fig15_cell_then_heavy_loaded(cc):
        from repro.experiments.fct_experiment import run_fct_summary

        run_fct_summary(cc, workload="hadoop", k=4, load=0.5, n_flows=40, scale=1.0, seed=1)
        return heavy_loaded()

    specs = [
        RunSpec(fn=fig15_cell_then_heavy_loaded, kwargs={"cc": cc})
        for cc in ("fncc", "dcqcn")
    ]
    results = SweepExecutor(jobs=2).map(specs)
    assert [r.value for r in results] == [[], []], results
    """
    assert run_probe(HEAVY, body) == []


# -- every run path, not only the serial packet engine -------------------------

#: Reduced §5.5 cell shared by the shard and hybrid probes.
SMALL_CELL = dict(workload="websearch", k=4, load=0.5, n_flows=12, scale=0.05, seed=1)


def test_inprocess_sharded_cell_loads_neither():
    body = f"""
    from repro.shard import run_sharded_fct

    result = run_sharded_fct("fncc", shards=2, **{SMALL_CELL!r})
    assert result.completed == result.n_flows == 12
    """
    assert run_probe(body) == []


@FORK_ONLY
def test_shard_worker_builds_and_advances_without_networkx():
    body = f"""
    import repro.experiments.runner
    from repro.shard.builders import build_fct_shard
    from repro.shard.partition import fattree_plan
    from repro.shard.runtime import ProcessShards, run_sharded
    from repro.sim.engine import Simulator
    from repro.topo.fattree import fattree_wiring
    from repro.units import MS

    def fct_shard_reporting_imports(shard_id, owner, n_shards, **kwargs):
        # build_fct_shard whose collect payload also says which deferred
        # libraries the worker had loaded by the end of its run.
        fabric = build_fct_shard(shard_id, owner, n_shards, **kwargs)
        collect = fabric.collect
        fabric.collect = lambda: dict(collect(), heavy_loaded=heavy_loaded())
        return fabric

    build = {{
        "fn": "__main__:fct_shard_reporting_imports",
        "kwargs": dict({SMALL_CELL!r}, cc="fncc"),
    }}
    plan = fattree_plan(fattree_wiring(Simulator(), k=4), 2)
    group = ProcessShards(build, plan)
    try:
        run_sharded(group, plan, chunk_ps=MS // 2, max_horizon_ps=50 * MS)
        payloads = group.collect_all()
    finally:
        group.stop()
    assert sum(len(p["records"]) for p in payloads.values()) == 12
    assert [p["heavy_loaded"] for p in payloads.values()] == [[], []], payloads
    """
    assert run_probe(HEAVY, body) == []


def test_hybrid_cell_loads_neither():
    body = f"""
    from repro.experiments.fct_experiment import run_fct_summary

    summary = run_fct_summary("fncc", backend="hybrid", **{SMALL_CELL!r})
    assert summary.completed() == 12
    """
    assert run_probe(body) == []


def test_faultmatrix_quick_loads_neither():
    body = """
    import contextlib, io
    from repro.experiments.runner import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["faultmatrix", "--quick"]) == 0
    assert "all cells resolved every flow" in out.getvalue()
    """
    assert run_probe(body) == []


# -- a module loads its own graph and nothing else ------------------------------


def test_import_repro_loads_only_the_root():
    assert run_probe("import repro", report=REPRO_REPORT) == ["repro"]


def test_list_imports_no_figure_module():
    body = """
    import contextlib, io
    from repro.experiments.runner import main

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--list"]) == 0
    """
    assert run_probe(body, report=REPRO_REPORT) == [
        "repro",
        "repro.experiments",
        "repro.experiments.runner",
    ]


@FORK_ONLY
def test_every_subpackage_imports_first_in_a_fresh_interpreter():
    # With the package roots lazy, nothing imports repro.net (say) before
    # whatever a process imports first, so an import cycle between two
    # subpackages fails only in the process that enters it from the wrong
    # side.  transport.sender and metrics.stats are where the cycle
    # through repro.net used to be entered.  One interpreter, one fork per
    # module.
    root = Path(SRC) / "repro"
    subpackages = sorted(p.name for p in root.iterdir() if (p / "__init__.py").exists())
    assert len(subpackages) == 16, subpackages
    modules = [f"repro.{name}" for name in subpackages]
    modules += ["repro.transport.sender", "repro.metrics.stats"]
    body = f"""
    import json, os, traceback

    failed = []
    for name in {modules!r}:
        pid = os.fork()
        if pid == 0:
            try:
                __import__(name)
            except BaseException:
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        if os.waitpid(pid, 0)[1]:
            failed.append(name)
    print(json.dumps(failed))
    """
    assert run_probe(body, report="") == []


def test_a_figure_cell_imports_nothing_its_module_did_not():
    # A pool worker forks after the parent imported the figure module, so
    # what the cell imports on top is imported again in every worker.
    body = """
    import json, sys
    from repro.experiments.fig15_hadoop import run_fig15

    before = {m for m in sys.modules if m.split(".")[0] == "repro"}
    results = run_fig15(n_flows=10)
    assert [r.completed() for r in results.values()] == [10, 10, 10], results
    after = {m for m in sys.modules if m.split(".")[0] == "repro"}
    print(json.dumps(sorted(after - before)))
    """
    assert run_probe(body, report="") == []


@FORK_ONLY
@pytest.mark.parametrize("cell", [
    dict(backend="hybrid"), dict(backend="flow"), dict(obs_snapshot=True),
], ids=["hybrid", "flow", "traced"])
def test_a_pooled_cell_imports_nothing_after_the_fork(cell):
    # The fluid engines and the obs package are imported inside the cell;
    # the sweep resolves them in the parent, so a forked worker has them.
    body = f"""
    import json, os, sys, tempfile
    import repro.experiments.fct_experiment as fct_experiment
    from repro.experiments.fig15_hadoop import run_fig15

    at_fork = set()
    os.register_at_fork(after_in_child=lambda: at_fork.update(sys.modules))
    reports = tempfile.mkdtemp()
    cell = fct_experiment.run_fct_summary

    def cell_reporting_imports(*args, **kwargs):
        summary = cell(*args, **kwargs)
        new = {{m for m in sys.modules if m.split(".")[0] == "repro"}} - at_fork
        with open(os.path.join(reports, str(os.getpid())), "a") as f:
            f.write(json.dumps(sorted(new)) + "\\n")
        return summary

    fct_experiment.run_fct_summary = cell_reporting_imports
    results = run_fig15(n_flows=10, jobs=2, **{cell!r})
    assert [r.completed() for r in results.values()] == [10, 10, 10], results
    lines = [line for name in os.listdir(reports)
             for line in open(os.path.join(reports, name))]
    assert len(lines) == 3, lines
    print(json.dumps(sorted({{m for line in lines for m in json.loads(line)}})))
    """
    assert run_probe(body, report="") == []


@FORK_ONLY
def test_a_forked_shard_worker_imports_nothing():
    # The coordinator imported the shard runtime, not the builder the
    # build spec names: the builder is resolved before the workers fork.
    body = f"""
    import json, os, sys
    from repro.shard.partition import fattree_plan
    from repro.shard.runtime import ProcessShards, ShardEngine, run_sharded
    from repro.sim.engine import Simulator
    from repro.topo.fattree import fattree_wiring
    from repro.units import MS

    at_fork = set()
    os.register_at_fork(after_in_child=lambda: at_fork.update(sys.modules))
    collect = ShardEngine.collect

    def collect_reporting_imports(self):
        new = {{m for m in sys.modules if m.split(".")[0] == "repro"}} - at_fork
        return dict(collect(self), imported_after_fork=sorted(new))

    ShardEngine.collect = collect_reporting_imports
    build = {{
        "fn": "repro.shard.builders:build_fct_shard",
        "kwargs": dict({SMALL_CELL!r}, cc="fncc"),
    }}
    plan = fattree_plan(fattree_wiring(Simulator(), k=4), 2)
    group = ProcessShards(build, plan)
    try:
        run_sharded(group, plan, chunk_ps=MS // 2, max_horizon_ps=50 * MS)
        payloads = group.collect_all()
    finally:
        group.stop()
    assert sum(len(p["records"]) for p in payloads.values()) == 12
    print(json.dumps([p["imported_after_fork"] for p in payloads.values()]))
    """
    assert run_probe(body, report="") == [[], []]


# -- the lazy package roots keep their public names -----------------------------


@pytest.mark.parametrize("package", ["repro", "repro.net", "repro.experiments"])
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        module.no_such_name
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_star_import_names_the_same_objects_as_their_modules():
    namespace = {}
    exec("from repro import *", namespace)
    from repro.net.switch import Switch
    from repro.units import us

    assert namespace["Switch"] is Switch and namespace["us"] is us
    assert namespace["__version__"] == repro.__version__


# -- scipy is optional -------------------------------------------------------


def test_import_and_figures_work_without_scipy():
    body = """
    import contextlib, io
    import repro
    from repro.experiments.runner import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in (["--list"], ["fig1a"], ["theory"]):
            assert main(argv) == 0
    assert "paper-scale" in out.getvalue()
    """
    run_probe(NO_SCIPY, body, ONE_FLOW)


@pytest.mark.parametrize(
    "call, who",
    [
        (
            "from repro.analysis import FluidLink, simulate_queue\n"
            "simulate_queue(FluidLink(100.0, 10_000_000), [lambda t: 1e5], 1e8)",
            "simulate_queue",
        ),
        (
            "from repro.experiments.paper_scale import shape_correlation\n"
            "shape_correlation(None, None)",
            "rank correlation",
        ),
    ],
)
def test_scipy_users_name_the_extra_when_it_is_missing(call, who):
    check = f"""
try:
{textwrap.indent(call, "    ")}
except ImportError as exc:
    msg = str(exc)
    assert "\\n" not in msg and {who!r} in msg and "pip install '.[analysis]'" in msg, msg
else:
    raise AssertionError("expected ImportError")
"""
    run_probe(NO_SCIPY, check)
