#!/usr/bin/env python
"""Reach census: which ``src/repro`` definition does some entry point run?

Every entry point a user has is run once under ``sys.setprofile``, and every
``def`` under ``src/repro`` (``module:qualname``, methods and closures
included) is recorded with the entry points whose run entered its body.  A
definition no entry point enters is listed with the reason it stays, one of
:data:`REASONS` given by :data:`KEEP`; one with no reason is dead code, and
the census refuses to record it.  The committed result is ``tests/census.json``;
``tests/test_census.py`` fails on any definition it does not list, so a new
function lands together with a re-run census that says who calls it.

The entry points (:func:`entry_points`):

* every figure of ``runner._MODULES``: the default invocation, and one per
  option set its ``main`` accepts (``runner._accepted_options``) —
  ``--quick``, ``--backend flow``, ``--backend hybrid``, ``--trace PATH
  --progress`` alone and with each backend, and ``--jobs 2``;
* every script under ``examples/``;
* ``python -m repro.hybrid.validate --quick``, and ``python -m
  repro.obs.export`` on the trace a ``--trace`` run wrote;
* ``python -m benchmarks.suite --smoke --trace 1``, recorded as the source
  ``benchmark``: a definition only it reaches is kept for the benchmark.

"Reached" means a body was entered, in the entry point's own process or in
any process it started: forked pool and shard workers inherit the profile
function; fresh interpreters (spawned workers, the suite's children) load
it through a ``sitecustomize`` on ``PYTHONPATH``.  Each process appends a
line per newly entered code object to the entry point's log the moment it
enters it, so nothing depends on an exit hook — forked workers leave through
``os._exit``, which runs none.

Usage, from the repository root::

    python -m tools.census              # run the census, print it
    python -m tools.census --check      # run it, diff against tests/census.json
    python -m tools.census --rebless    # run it, rewrite tests/census.json

``--rebless`` refuses until the newest CHANGES.md entry names
``census.json`` and says why the reach moved.  A full run takes five to six
minutes on two vCPUs, two entry points at a time.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "repro"
CENSUS_PATH = ROOT / "tests" / "census.json"
CHANGES_PATH = ROOT / "CHANGES.md"

#: Set in every process of an entry point's run: the log its reach goes to.
LOG_ENV = "REPRO_CENSUS_LOG"

#: The reasons a definition no entry point reaches may stay.  The first
#: four are for good; ``pending`` marks dead code whose deletion takes
#: tests with it and is scheduled (ROADMAP item 10), and only
#: definitions listed in :data:`KEEP` can carry it.
REASONS = {
    "crash": "a crash path: runs only when a run dies",
    "oracle": "an oracle kept in src on purpose (ROADMAP item 12 wires it in)",
    "benchmark": "reached only by the benchmark (repro/shard: ROADMAP item 11 decides)",
    "public": "a public name with a named user that is not a test",
    "pending": "used by tests only; its deletion is scheduled (ROADMAP item 10)",
}

#: Unreached definitions that stay: ``module`` or ``module:qualname``
#: prefix -> (reason, who or what needs it).
KEEP: Dict[str, Tuple[str, str]] = {
    # crash paths
    "repro.obs.flight": ("crash", "the flight recorder dumps when a run raises"),
    "repro.obs.trace:TraceEvent.to_dict": ("crash", "the flight dump's trace tail"),
    "repro.obs.trace:EventTracer.tail": ("crash", "the flight dump's trace tail"),
    "repro.faults.inject:FaultInjector.flight_state": ("crash", "the flight dump's faults section"),
    "repro.metrics.monitors:_PeriodicSampler.stop": (
        "crash", "Simulator.stop_monitors, which the flight recorder calls"),
    "repro.exec.executor:SweepError.__init__": ("crash", "a sweep spec that raises"),
    # oracles
    "repro.faults.audit": ("oracle", "FaultAuditor: the quiescence oracle"),
    # the benchmark's
    "repro.shard": ("benchmark", "the sharded engine: shard_fattree_2proc"),
    # public, with a user in src that no entry point drives there
    "repro:_lazy_exports.<locals>.__dir__": ("public", "dir() on the lazy package roots"),
    "repro.cc.base:CongestionControl.on_cnp": (
        "public", "SenderQP.on_cnp hands every CNP to its cc; DCQCN's is the override"),
    "repro.net.node:Node.on_departure": ("public", "Port.__init__ tests a node's hook against it"),
    "repro.net.switch:Switch.on_departure": (
        "public", "Port inlines it for a stock switch and tests a peer's hook against it"),
    "repro.net.switch:PfcWatchdog._storm_off": ("public", "PfcWatchdog._poll, when a storm clears"),
    "repro.net.switch:PfcWatchdog.collect": ("public", "arm_watchdog(registry=)"),
    "repro.faults.inject:FaultInjector.collect": ("public", "FaultInjector.arm(registry=)"),
    "repro.obs.registry:MetricsRegistry.bind_collector": (
        "public", "arm_watchdog(registry=) and FaultInjector.arm(registry=)"),
    "repro.obs.trace:EventTracer._hook_lb.<locals>": (
        "public", "a traced run whose strategy reroutes (ConWeaveLiteLB calls on_reroute)"),
    "repro.lb.base:sweep_bounded_table": ("public", "the max_cache_entries bound of FlowletLB and ConWeaveLiteLB"),
    "repro.lb.conweave:ConWeaveLiteLB._sweep": ("public", "its router, when the flow table is full"),
    "repro.lb.flowlet:FlowletLB._sweep": ("public", "its router, when the flowlet table is full"),
    "repro.experiments.common:series_samples": ("public", "repro.shard.builders"),
    "repro.experiments.common:MicrobenchResult.series_fingerprint": ("public", "repro.shard.drivers"),
    # pending: deleting each takes the named floor tests with it
    "repro.analysis.fluid": ("pending", "12 tests in tests/analysis/test_fluid.py (ROADMAP item 8)"),
    "repro.viz:sparkline": ("pending", "tests/test_viz.py::TestSparkline"),
    "repro.viz:ascii_plot": ("pending", "tests/test_viz.py::TestAsciiPlot"),
    "repro.units:ns": ("pending", "tests/test_units.py"),
    "repro.units:sec": ("pending", "tests/test_units.py"),
    "repro.units:to_sec": ("pending", "tests/test_units.py"),
    "repro.units:gbps_to_bytes_per_ps": ("pending", "tests/test_units.py"),
    "repro.units:bytes_per_ps_to_gbps": ("pending", "tests/test_units.py"),
    "repro.units:bdp_bytes": ("pending", "tests/test_units.py"),
    "repro.units:rate_of_window": ("pending", "tests/test_units.py"),
    "repro.traffic.cdf:PiecewiseCdf.quantile": ("pending", "tests/traffic/test_cdf.py"),
    "repro.traffic.cdf:PiecewiseCdf.scaled": ("pending", "tests/traffic/test_cdf.py"),
    "repro.net.packet:Packet.add_int": ("pending", "tests/net/test_packet.py"),
    "repro.net.packet:Packet.is_control": ("pending", "tests/net/test_packet.py"),
    "repro.net.packet:Packet.__repr__": ("pending", "tests/net/test_packet.py"),
    "repro.transport.flow:Flow.__repr__": ("pending", "tests/transport/test_flow.py"),
    "repro.sim.timer:Timer.armed": ("pending", "tests/sim/test_timer.py"),
    "repro.sim.timer:Timer.expires_at": ("pending", "tests/sim/test_timer.py"),
    "repro.topo.base:Topology.bottleneck_gbps": ("pending", "tests/topo/test_topologies.py"),
    "repro.metrics.monitors:_PeriodicSampler.__enter__": ("pending", "tests/metrics/test_monitors.py"),
    "repro.metrics.monitors:_PeriodicSampler.__exit__": ("pending", "tests/metrics/test_monitors.py"),
    "repro.faults.plan:FaultPlan.__len__": ("pending", "tests/faults/test_plan.py"),
    "repro.faults.plan:FaultPlan.__bool__": ("pending", "tests/faults/test_plan.py"),
    "repro.faults.plan:FaultPlan.fingerprint": ("pending", "tests/faults/test_plan.py"),
    "repro.faults.plan:FaultPlan.__eq__": ("pending", "tests/faults/test_plan.py"),
    "repro.faults.plan:FaultPlan.__hash__": ("pending", "tests/faults/test_plan.py"),
    "repro.experiments.common:FctCell.fct_fingerprint": (
        "pending", "the determinism tests' witness: a test helper or the run manifest's (ROADMAP item 4)"),
    "repro.experiments.common:MicrobenchResult.fingerprint": (
        "pending", "the determinism tests' witness: a test helper or the run manifest's (ROADMAP item 4)"),
    "repro.lb.ecmp:EcmpLB.make_router.<locals>.router#2": (
        "pending", "fattree(symmetric_ecmp=False), a knob only tests turn"),
    "repro.lb.spray:SprayLB.make_router.<locals>.router#2": (
        "pending", "LbConfig('spray', mode='random'), a knob only tests turn"),
}

#: What a reach list holds when every invocation the census runs of one
#: figure reached the definition: ``"fig14 *"``.
ALL_VARIANTS = " *"


# -- the definitions ---------------------------------------------------------

def _module_name(path: Path) -> str:
    parts = list(path.relative_to(PKG.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _start(node) -> int:
    """The line a def's code object starts on: its first decorator's."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def definitions() -> Dict[str, Tuple[str, int, str]]:
    """Every ``def`` under ``src/repro``, in file and source order:
    ``module:qualname`` -> (path relative to the package, the line its code
    object starts on, its name).  A qualname defined twice in one module
    (a function defined on two branches) gets ``#2`` appended."""
    out: Dict[str, Tuple[str, int, str]] = {}
    for path in sorted(PKG.rglob("*.py")):
        module = _module_name(path)
        rel = path.relative_to(PKG).as_posix()

        def walk(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    key = f"{module}:{qualname}"
                    n = 2
                    while key in out:
                        key = f"{module}:{qualname}#{n}"
                        n += 1
                    out[key] = (rel, _start(child), child.name)
                    walk(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")
    return out


# -- the profile hook, in every process of a run -----------------------------

def profile_this_process() -> None:
    """Record, in the log ``$REPRO_CENSUS_LOG`` names, every ``src/repro``
    code object this process (and any process forked from it) enters.
    Installed by the census's ``sitecustomize``."""
    import threading

    fd = os.open(os.environ[LOG_ENV], os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    prefix = str(PKG) + os.sep
    seen = {}  # id -> code object, which the entry keeps alive (ids unique)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen[id(code)] = code
                path = os.path.abspath(code.co_filename)
                if path.startswith(prefix):
                    # One write per line on an O_APPEND descriptor: lines
                    # from forked workers sharing it never interleave.
                    os.write(fd, f"{path[len(prefix):]}\t{code.co_firstlineno}\t"
                                 f"{code.co_name}\n".encode())

    threading.setprofile(profile)
    sys.setprofile(profile)
    _keep_children_in_the_census()


def _keep_children_in_the_census() -> None:
    """A caller that hands a child its own ``PYTHONPATH`` (the suite runs
    its children on ``src`` alone) would drop the ``sitecustomize``: put it
    back in front, with the repository root it imports this module from."""
    boot = os.path.dirname(sys.modules["sitecustomize"].__file__)
    init = subprocess.Popen.__init__

    def __init__(self, args, *a, **kw):
        env = kw.get("env")
        if env is not None and LOG_ENV in env:
            path = env.get("PYTHONPATH", "")
            if boot not in path.split(os.pathsep):
                kw["env"] = dict(env, PYTHONPATH=os.pathsep.join(
                    [boot, str(ROOT)] + ([path] if path else [])))
        init(self, args, *a, **kw)

    subprocess.Popen.__init__ = __init__


_SITECUSTOMIZE = """\
import os
if os.environ.get({env!r}):
    from tools.census import profile_this_process
    profile_this_process()
"""


# -- the entry points --------------------------------------------------------

def entry_points(tmp: Path) -> List[Tuple[str, List[str]]]:
    """(id, interpreter arguments) for every entry point, in census order.
    The figure list and each figure's options come from the runner, so a
    new figure or option is in the next census without touching this.
    The last two read what the runs before them wrote or left alone:
    ``repro.obs.export`` the first trace, the suite the warm caches."""
    sys.path.insert(0, str(PKG.parent))
    from repro.experiments.runner import _MODULES, _accepted_options

    variants = (
        ({"quick"}, ["--quick"]),
        ({"backend"}, ["--backend", "flow"]),
        ({"backend"}, ["--backend", "hybrid"]),
        ({"trace"}, ["--trace", None, "--progress"]),
        ({"backend", "trace"}, ["--backend", "flow", "--trace", None, "--progress"]),
        ({"backend", "trace"}, ["--backend", "hybrid", "--trace", None, "--progress"]),
        ({"jobs"}, ["--jobs", "2"]),
    )
    out = []
    traces = []
    for name in _MODULES:
        out.append((name, ["-m", "repro.experiments.runner", name]))
        accepted = _accepted_options(name)
        for options, args in variants:
            if options <= accepted:
                ident = " ".join([name] + [a for a in args if a is not None])
                trace = str(tmp / f"trace-{len(out)}.json")
                if None in args:
                    traces.append(trace)
                out.append((ident, ["-m", "repro.experiments.runner", name]
                            + [trace if a is None else a for a in args]))
    for script in sorted((ROOT / "examples").glob("*.py")):
        out.append((f"examples/{script.name}", [str(script)]))
    out.append(("repro.hybrid.validate --quick", ["-m", "repro.hybrid.validate", "--quick"]))
    out.append(("repro.obs.export", ["-m", "repro.obs.export", traces[0], "--require-registry"]))
    out.append(("benchmark", ["-m", "benchmarks.suite", "--smoke", "--trace", "1"]))
    return out


def run(workers: int = 2, log=sys.stderr) -> Dict[str, set]:
    """Run every entry point, ``workers`` at a time (``repro.obs.export``
    after the rest, since it reads their trace); return the definitions
    each one reached.  Raises if any of them fails."""
    by_code = {(rel, str(first), name): key
               for key, (rel, first, name) in definitions().items()}
    reached: Dict[str, set] = {}
    failures = []
    with tempfile.TemporaryDirectory(prefix="census-") as tmpdir:
        tmp = Path(tmpdir)
        boot = tmp / "boot"
        boot.mkdir()
        (boot / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(env=LOG_ENV))
        points = entry_points(tmp)
        export = [p for p in points if p[0] == "repro.obs.export"]
        batches = ([p for p in points if p[0] != "repro.obs.export"], export)
        running: List[Tuple[str, subprocess.Popen, Path, float]] = []
        t_start = time.perf_counter()

        def start(n: int, ident: str, argv: List[str]) -> None:
            logpath = tmp / f"{n}.log"
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                [str(boot), str(PKG.parent), str(ROOT)]), **{LOG_ENV: str(logpath)})
            with open(tmp / f"{n}.err", "w") as err:
                proc = subprocess.Popen([sys.executable, *argv], cwd=str(tmp), env=env,
                                        stdout=subprocess.DEVNULL, stderr=err)
            running.append((ident, proc, logpath, time.perf_counter()))

        def reap(item) -> None:
            ident, proc, logpath, t0 = item
            running.remove(item)
            print(f"census: {ident}: {time.perf_counter() - t0:.1f} s, exit "
                  f"{proc.returncode}", file=log, flush=True)
            if proc.returncode != 0:
                failures.append((ident, logpath.with_suffix(".err").read_text()[-3000:]))
            lines = logpath.read_text().splitlines() if logpath.exists() else []
            reached[ident] = {by_code[k] for k in map(lambda l: tuple(l.split("\t")), lines)
                              if k in by_code}

        try:
            n = 0
            for batch in batches:
                for ident, argv in batch:
                    while len(running) >= workers:
                        done = [item for item in running if item[1].poll() is not None]
                        for item in done:
                            reap(item)
                        if not done:
                            time.sleep(0.05)
                    start(n, ident, argv)
                    n += 1
                while running:
                    running[0][1].wait()
                    reap(running[0])
        finally:
            for _, proc, _, _ in running:
                proc.kill()
                proc.wait()
        print(f"census: {len(points)} entry points in "
              f"{time.perf_counter() - t_start:.0f} s", file=log, flush=True)
    if failures:
        raise RuntimeError("entry points failed:\n" + "\n".join(
            f"--- {ident}\n{err}" for ident, err in failures))
    return {ident: reached[ident] for ident, _ in points}  # census order


# -- the census --------------------------------------------------------------

def _keep(key: str) -> Optional[Tuple[str, Tuple[str, str]]]:
    """The :data:`KEEP` entry covering ``key``: (its prefix, its reason)."""
    module = key.split(":", 1)[0]
    for prefix, reason in KEEP.items():
        if ":" in prefix:
            if key == prefix or key.startswith(prefix + "."):
                return prefix, reason
        elif module == prefix or module.startswith(prefix + "."):
            return prefix, reason
    return None


def _compact(reached_by: List[str], figures: Dict[str, List[str]]) -> List[str]:
    """Write a figure whose every invocation reached the definition as
    ``"<figure> *"`` instead of listing each invocation."""
    out = []
    for base, idents in figures.items():
        hit = [i for i in idents if i in reached_by]
        if len(idents) > 1 and hit == idents:
            out.append(base + ALL_VARIANTS)
        else:
            out.extend(hit)
    return out


def census(reached: Dict[str, set]) -> Tuple[dict, List[str]]:
    """The census document, and its problems: each definition that is
    dead (unreached, with no reason to stay), and each :data:`KEEP` entry
    that keeps nothing (what it named was deleted or is reached now)."""
    figures: Dict[str, List[str]] = {}
    for ident in reached:
        figures.setdefault(ident.split(" ")[0], []).append(ident)
    table = {}
    problems = []
    used = set()
    for key in definitions():
        by = [ident for ident in reached if key in reached[ident]]
        if by:
            table[key] = _compact(by, figures)
        elif _keep(key) is not None:
            prefix, (reason, why) = _keep(key)
            used.add(prefix)
            table[key] = {"keep": reason, "why": why}
        else:
            problems.append(f"{key}: unreached, and no KEEP reason")
    problems += [f"KEEP[{prefix!r}] keeps nothing" for prefix in KEEP if prefix not in used]
    doc = {
        "about": "Which src/repro definition each entry point reaches "
                 "(python -m tools.census; DESIGN.md §9.2).  A list names the "
                 "entry points whose run entered the body ('<figure> *': every "
                 "invocation of it the census runs; 'benchmark' alone: kept for "
                 "the benchmark); an object gives the reason an unreached one stays.",
        "reasons": REASONS,
        "entry_points": list(reached),
        "definitions": table,
    }
    return doc, problems


def dumps(doc: dict) -> str:
    """One definition per line, so a re-bless diffs line by line."""
    lines = ["{"]
    for name in ("about", "reasons", "entry_points"):
        lines.append(f"  {json.dumps(name)}: {json.dumps(doc[name])},")
    lines.append('  "definitions": {')
    items = list(doc["definitions"].items())
    for i, (key, value) in enumerate(items):
        comma = "," if i < len(items) - 1 else ""
        lines.append(f"    {json.dumps(key)}: {json.dumps(value)}{comma}")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="fail when a fresh census differs from tests/census.json")
    mode.add_argument("--rebless", action="store_true",
                      help="rewrite tests/census.json (CHANGES.md must say why)")
    args = ap.parse_args(argv)

    if args.rebless and CENSUS_PATH.name not in CHANGES_PATH.read_text().rstrip().splitlines()[-1]:
        sys.exit(f"refusing: the newest CHANGES.md entry does not name {CENSUS_PATH.name}; "
                 "write down why the reach moved, then re-bless")
    doc, problems = census(run())
    text = dumps(doc)
    if problems:
        print("the census has problems (delete what nothing reaches, or give it a "
              "KEEP reason; drop KEEP entries that keep nothing):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
    if args.rebless:
        if problems:
            return 1
        CENSUS_PATH.write_text(text)
        print(f"wrote {CENSUS_PATH.relative_to(ROOT)}", file=sys.stderr)
        return 0
    if args.check:
        old = json.loads(CENSUS_PATH.read_text())["definitions"]
        new = doc["definitions"]
        diff = [
            f"  {key}: {json.dumps(old.get(key))} -> {json.dumps(new.get(key))}"
            for key in sorted(set(old) | set(new)) if old.get(key) != new.get(key)
        ]
        if diff or problems or text != CENSUS_PATH.read_text():
            print(f"the census moved ({len(diff)} definitions); re-bless with "
                  "python -m tools.census --rebless after saying why in CHANGES.md",
                  file=sys.stderr)
            print("\n".join(diff), file=sys.stderr)
            return 1
        print("census unchanged", file=sys.stderr)
        return 0
    sys.stdout.write(text)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    raise SystemExit(main())
