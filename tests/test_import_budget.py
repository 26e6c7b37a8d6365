"""The cold-start budget as an invariant (DESIGN.md §5.4): a process that
runs a paper figure loads none of numpy, scipy and networkx, and scipy may
be absent altogether.  Checked on ``sys.modules`` in fresh interpreters — a
property of the import graph, not a timing.  A forked pool or shard worker
starts with its parent's modules, so those probes start their group from
a fresh interpreter holding the CLI's import graph, never from this
process."""

import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

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


def run_probe(*parts: str) -> list:
    """Run the concatenated snippets in a fresh interpreter; returns the
    deferred libraries it ended up with."""
    code = "\n".join(textwrap.dedent(part) for part in (*parts, REPORT))
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
    from repro.metrics.fct import SIZE_BINS_WEBSEARCH, FctCollector

    sim = Simulator()
    topo = fattree(sim, k=4, switch_config=env.switch_config)
    collector = FctCollector(topo)
    launch_flows(topo, [Flow(0, 0, 15, 20_000)], env)
    sim.run()
    text = collector.table(SIZE_BINS_WEBSEARCH).format("one flow")
    assert text.splitlines()[2].split()[:2] == ["10KB", "0"], text
    assert text.splitlines()[3].split()[:2] == ["20KB", "1"], text
    assert collector.slowdowns() == [collector.records[0].slowdown]
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
