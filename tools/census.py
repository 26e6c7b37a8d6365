#!/usr/bin/env python
"""Reach, value and line census: which ``src/repro`` definition does some
entry point run, which knob does it turn, and which line does it run?

Every entry point a user has is run once under ``sys.settrace``, and every
``def`` under ``src/repro`` (``module:qualname``, methods and closures
included) is recorded with the entry points whose run entered its body.  A
definition no entry point enters is listed with the reason it stays, one of
:data:`REASONS` given by :data:`KEEP`; one with no reason is dead code, and
the census refuses to record it.  The committed result is ``tests/census.json``;
``tests/test_census.py`` fails on any definition it does not list, so a new
function lands together with a re-run census that says who calls it.

The same runs record values: for every parameter with a default of a
``def`` not nested in a def (:func:`knobs`), the entry points that called
it with a value other than its default — not the default object, and not
an equal value of the same type.  A knob no entry point turns lists none;
``tests/test_census.py`` fails on a defaulted parameter the file does not
list, so a new keyword lands together with a census that says who sets it.

And the same runs record lines: every line of a ``def`` (its code object's
lines, :func:`body_lines`, with those of the lambdas and comprehensions in
it) that no entry point runs must have a reason (:func:`unreached`): a
``raise`` or a branch ending in one is ``crash``; a line of a def kept for a
reason, or reached by the benchmark alone, inherits it; any other needs an
inline ``# census: <reason> — <test id>`` naming the test that runs it
(:data:`INLINE`).  A line with none is a problem, like a dead definition.
Nothing per line is committed.  The named tests then run once each, in one
pytest child traced on the first line each reason excuses
(:func:`reason_problems`): a reason whose test does not run its line is a
problem too.

The entry points (:func:`entry_points`):

* every figure of ``runner._MODULES``: the default invocation, and one per
  option set its ``main`` accepts (``runner._accepted_options``) —
  ``--quick``, ``--backend hybrid``, ``--trace PATH --progress`` alone and
  with it, and ``--jobs 2``;
* every script under ``examples/``;
* ``python -m repro.hybrid.validate --quick``, and ``python -m
  repro.obs.export`` on the trace a ``--trace`` run wrote;
* ``python -m benchmarks.suite --smoke --trace 1``, recorded as the source
  ``benchmark``: a definition only it reaches is kept for the benchmark.

The suite runs at ``--smoke`` sizes only, so a knob that only its full
specs turn reads ``[]``: ``build_fct_fabric(k)`` does, although the full
``hybrid_fluid_5k`` runs ``run_fct_hybrid(k=8)``, which calls
``build_fct_fabric(k=8)``.  Check a ``[]`` row of a definition the
benchmark reaches against the ``FULL`` table of ``benchmarks/suite/specs.py``
before deleting the knob.

"Reached" means a body was entered, in the entry point's own process or in
any process it started: forked pool and shard workers inherit the trace
function; fresh interpreters (spawned workers, the suite's children) load
it through a ``sitecustomize`` on ``PYTHONPATH``.  Each process appends a
line per newly entered code object to the entry point's log the moment it
enters it, so nothing depends on an exit hook — forked workers leave through
``os._exit``, which runs none.  A knob is logged the same way, by the first
call in a process that turns it; after that the hook stops looking at it.
A line is logged by the first time a process runs it; a code object with no
line left to log runs untraced.

Usage, from the repository root::

    python -m tools.census                    # run the census, print it
    python -m tools.census --check            # run it, diff against tests/census.json
    python -m tools.golden --rebless census   # run it, rewrite tests/census.json

``tests/census.json`` is the ``census`` table of the identity store
(``tools/golden.py``), which refuses to re-bless it until CHANGES.md says why
the reach or a knob moved.  A full run takes about twelve minutes on two
vCPUs, two entry points at a time.
"""

from __future__ import annotations

import argparse
import ast
import dis
import gc
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tokenize
import types
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from tools import golden

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "repro"
CENSUS_PATH = ROOT / "tests" / "census.json"

#: Set in every process of an entry point's run: the log its reach goes to.
LOG_ENV = "REPRO_CENSUS_LOG"
#: And the lines the entry points that finished before it started ran,
#: which its processes need not log again.
RAN_ENV = "REPRO_CENSUS_RAN"
#: Set in every process of the reason-test run: the file of the lines to
#: watch; each process appends the line and the test that ran it to
#: ``<file>.log``.
REASONS_ENV = "REPRO_CENSUS_REASONS"

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
    "repro.obs.flight": (
        "crash", "ShardEngine.flight_dump, when a shard raises; no entry point builds a "
        "FlightRecorder (ROADMAP items 5 and 12)"),
    "repro.obs.trace:TraceEvent.to_dict": ("crash", "the flight dump's trace tail"),
    "repro.obs.trace:EventTracer.tail": ("crash", "the flight dump's trace tail"),
    "repro.faults.inject:FaultInjector.flight_state": ("crash", "the flight dump's faults section"),
    "repro.metrics.monitors:_PeriodicSampler.stop": (
        "crash", "Simulator.stop_monitors, which the flight recorder calls"),
    "repro.exec.executor:SweepError.__init__": ("crash", "a sweep spec that raises"),
    "repro.net.packet:Packet.__repr__": (
        "crash", "the routing-loop RuntimeError of Switch.receive and of Port._tx_deliver's fused hop"),
    # oracles
    "repro.faults.audit": ("oracle", "FaultAuditor: the quiescence oracle"),
    # the benchmark's
    "repro.shard": ("benchmark", "the sharded engine: shard_fattree_2proc"),
    # public, with a user in src that no entry point drives there
    "repro:_lazy_exports.<locals>.__dir__": ("public", "dir() on the lazy package roots"),
    "repro.cc.base:CongestionControl.on_cnp": (
        "public", "SenderQP.on_cnp hands every CNP to its cc; DCQCN's is the override"),
    "repro.net.node:Node.on_departure": ("public", "Port.__init__ tests a node's hook against it"),
    "repro.net.switch:PfcWatchdog._storm_off": ("public", "PfcWatchdog._poll, when a storm clears"),
    "repro.obs.trace:EventTracer._on_reroute": (
        "public", "a traced run whose strategy reroutes (ConWeaveLiteLB calls on_reroute)"),
    "repro.lb.base:sweep_bounded_table": ("public", "the max_cache_entries bound of FlowletLB and ConWeaveLiteLB"),
    "repro.lb.conweave:ConWeaveLiteLB._sweep": ("public", "its router, when the flow table is full"),
    "repro.lb.flowlet:FlowletLB._sweep": ("public", "its router, when the flowlet table is full"),
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


def _modules():
    """(module name, path relative to the package, source) of every module
    under ``src/repro``, in file order."""
    for path in sorted(PKG.rglob("*.py")):
        yield _module_name(path), path.relative_to(PKG).as_posix(), path.read_text(encoding="utf-8")


def _defs(tree: ast.Module, module: str, rel: str):
    """Every ``def`` of one module, in source order: (``module:qualname``,
    ``rel``, the line its code object starts on, the ``ast`` node, whether
    it is nested in a def).  A qualname defined twice in the module (a
    function defined on two branches) gets ``#2`` appended."""
    seen = set()

    def walk(node, prefix: str, nested: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                key = f"{module}:{qualname}"
                n = 2
                while key in seen:
                    key = f"{module}:{qualname}#{n}"
                    n += 1
                seen.add(key)
                yield key, rel, _start(child), child, nested
                yield from walk(child, qualname + ".<locals>.", True)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".", nested)
            else:
                yield from walk(child, prefix, nested)

    yield from walk(tree, "", False)


def _walk():
    """:func:`_defs` of every module under ``src/repro``, in file order."""
    for module, rel, source in _modules():
        yield from _defs(ast.parse(source, rel), module, rel)


def definitions() -> Dict[str, Tuple[str, int, str]]:
    """Every ``def`` under ``src/repro``, in file and source order:
    ``module:qualname`` -> (path relative to the package, the line its code
    object starts on, its name)."""
    return {key: (rel, first, node.name) for key, rel, first, node, _ in _walk()}


def _defaulted(args: ast.arguments) -> List[str]:
    """The parameters of a signature that have a default, in order."""
    positional = args.posonlyargs + args.args
    out = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return out + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def knobs() -> Dict[str, Tuple[str, str]]:
    """Every settable value under ``src/repro``, in source order:
    ``module:qualname(param)`` -> (``module:qualname``, param), for each
    parameter with a default of a ``def`` not nested in a def.  A nested
    def's defaults bind a value per closure (``_orig=orig``); no caller
    reaches them by name, so they are not knobs."""
    return {f"{key}({param})": (key, param)
            for key, _, _, node, nested in _walk() if not nested
            for param in _defaulted(node.args)}


# -- the trace hook, in every process of a run -------------------------------

def body_lines(code) -> set:
    """The lines of ``code``'s own instructions that report a line event
    when they run: all but the ``RESUME`` that opens the body, which sits
    on the ``def`` line and reports none (a one-line body shares that line
    and keeps it)."""
    resume = next((i.offset for i in dis.get_instructions(code) if i.opname == "RESUME"), -2)
    return {line for _, end, line in code.co_lines() if line is not None and end > resume + 2}


def trace_this_process() -> None:
    """Record, in the log ``$REPRO_CENSUS_LOG`` names, every ``src/repro``
    code object this process (and any process forked from it) enters, the
    first call that passes each of its knobs a value other than its
    default, and each of its lines the first time it runs.  Installed by
    the census's ``sitecustomize``."""
    import threading

    fd = os.open(os.environ[LOG_ENV], os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    prefix = str(PKG) + os.sep
    # id -> (code object, which the entry keeps alive (ids unique); the
    # (param, default) pairs no call has changed yet; its log-line head;
    # the frame offset a call starts at — a generator's later resumes,
    # whose locals the body may have rebound, start elsewhere; its lines
    # not run yet; the local trace function that logs them), or (code
    # object,) for code outside src/repro
    seen = {}
    bearing = []  # [_knob_bearing()], built on first use (forks inherit it)
    # path relative to the package -> the lines that need no record: the
    # ones an earlier entry point ran, then those its source gives a reason
    skip: Dict[str, set] = {}
    if os.environ.get(RAN_ENV):
        with open(os.environ[RAN_ENV]) as fh:
            for rel, line in map(str.split, fh):
                skip.setdefault(rel, set()).add(int(line))
    parsed = set()  # the paths whose source gave its reasons to skip

    def line_tracer(todo: set, rel: str):
        """The local trace function of one code object's frames: log each
        line of ``todo`` the first time it runs, and stop asking once none
        is left."""
        def lines(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                if line in todo:
                    todo.discard(line)
                    os.write(fd, f"{rel}\t{line}\n".encode())
                    if not todo:
                        frame.f_trace_lines = False
            return lines
        return lines

    def trace(frame, event, arg):  # the global trace function: event is "call"
        code = frame.f_code
        entry = seen.get(id(code))
        if entry is None:
            path = os.path.abspath(code.co_filename)
            if not path.startswith(prefix):
                seen[id(code)] = (code,)
                return None
            where = (path[len(prefix):], code.co_firstlineno, code.co_name)
            if not bearing:
                bearing.append(_knob_bearing())
            watch = _defaults(code, frame.f_globals) if where in bearing[0] else None
            head = "\t".join(map(str, where))
            if where[0] not in parsed:
                parsed.add(where[0])
                source = Path(path).read_text(encoding="utf-8")
                skip.setdefault(where[0], set()).update(_source_reasons(ast.parse(source), source)[0])
            todo = body_lines(code) - skip[where[0]]
            entry = seen[id(code)] = (code, watch, head, frame.f_lasti, todo,
                                      line_tracer(todo, where[0]))
            # One write per line on an O_APPEND descriptor: lines from
            # forked workers sharing it never interleave.
            os.write(fd, f"{head}\n".encode())
        elif len(entry) == 1:
            return None
        watch = entry[1]
        if watch and frame.f_lasti == entry[3]:
            args = frame.f_locals
            for i in range(len(watch) - 1, -1, -1):
                name, default = watch[i]
                value = args.get(name, default)
                if value is not default and _changed(value, default):
                    del watch[i]  # a knob turned once is a knob: stop looking
                    os.write(fd, f"{entry[2]}\t{name}\n".encode())
        return entry[5] if entry[4] else None

    threading.settrace(trace)
    sys.settrace(trace)
    _keep_children_in_the_census(LOG_ENV)


def _changed(value, default) -> bool:
    """True when a call passed something other than the default object
    that is not an equal value of the same type."""
    try:
        return type(value) is not type(default) or not bool(value == default)
    except (TypeError, ValueError):  # an ``==`` with no truth value (arrays)
        return True


def _knob_bearing() -> set:
    """(path relative to the package, first line, name) of each ``def``
    that has knobs (:func:`knobs`): the hook looks up defaults for these
    code objects alone, by the same rule the census lists knobs by."""
    return {(rel, first, node.name)
            for _, rel, first, node, nested in _walk() if not nested and _defaulted(node.args)}


def _defaults(code, namespace: dict) -> list:
    """``[(param, default), ...]`` of the function ``code`` belongs to,
    found through the module namespace it runs in, once per code object."""
    fn = _function_of(code, namespace)
    if fn is None:
        return []
    n = code.co_argcount
    positional = fn.__defaults__ or ()
    out = list(zip(code.co_varnames[n - len(positional):n], positional))
    return out + list((fn.__kwdefaults__ or {}).items())


def _function_of(code, namespace: dict):
    """The function object whose code is ``code``: a module-level function
    or a method (static, class, property accessor, or behind a
    ``functools.wraps`` wrapper) of a class the module defines.

    ``gc.get_referrers`` alone finds every one of them, but it scans the
    whole heap per call: under the hook on a 2-vCPU x86 box, ``fig14
    --quick`` took 6.2-7.7 s with it alone against 4.9-5.6 s with this
    walk first (three alternating runs each, the same knob lines)."""
    module = namespace.get("__name__")
    stack = list(namespace.values())
    classes = set()
    while stack:
        obj = stack.pop()
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if isinstance(obj, property):
            stack.extend(f for f in (obj.fget, obj.fset, obj.fdel) if f is not None)
        elif isinstance(obj, types.FunctionType):
            while obj is not None:
                if obj.__code__ is code:
                    return obj
                obj = getattr(obj, "__wrapped__", None)
        elif isinstance(obj, type) and obj.__module__ == module and id(obj) not in classes:
            classes.add(id(obj))
            stack.extend(vars(obj).values())
    # Held only in a dict or list the walk does not open: ask the collector.
    return next((f for f in gc.get_referrers(code)
                 if isinstance(f, types.FunctionType) and f.__code__ is code), None)


def _keep_children_in_the_census(env_name: str) -> None:
    """A caller that hands a child its own ``PYTHONPATH`` (the suite runs
    its children on ``src`` alone) would drop the ``sitecustomize``: put it
    back in front, with the repository root it imports this module from,
    for a child whose environment still sets ``env_name``."""
    boot = os.path.dirname(sys.modules["sitecustomize"].__file__)
    init = subprocess.Popen.__init__

    def __init__(self, args, *a, **kw):
        env = kw.get("env")
        if env is not None and env_name in env:
            path = env.get("PYTHONPATH", "")
            if boot not in path.split(os.pathsep):
                kw["env"] = dict(env, PYTHONPATH=os.pathsep.join(
                    [boot, str(ROOT)] + ([path] if path else [])))
        init(self, args, *a, **kw)

    subprocess.Popen.__init__ = __init__


def trace_reason_lines() -> None:
    """Append the path relative to the package, the line and the test id,
    tab-separated, to ``$REPRO_CENSUS_REASONS.log`` the first time this
    process (or one forked from it) runs each line the
    ``$REPRO_CENSUS_REASONS`` file lists, the test id read from
    ``PYTEST_CURRENT_TEST`` (which a child inherits).  Code objects with no
    listed line run untraced."""
    import threading

    targets: Dict[str, set] = {}
    with open(os.environ[REASONS_ENV]) as fh:
        for rel, line in map(str.split, fh):
            targets.setdefault(rel, set()).add(int(line))
    fd = os.open(os.environ[REASONS_ENV] + ".log", os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    prefix = str(PKG) + os.sep
    logged = set()
    tracers = {}  # id(code) -> (code, its local trace function or None)

    def line_tracer(rel: str, watch: set):
        def lines(frame, event, arg):
            if event == "line" and frame.f_lineno in watch:
                test = os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" ", 1)[0]
                if (rel, frame.f_lineno, test) not in logged:
                    logged.add((rel, frame.f_lineno, test))
                    os.write(fd, f"{rel}\t{frame.f_lineno}\t{test}\n".encode())
            return lines
        return lines

    def trace(frame, event, arg):
        code = frame.f_code
        entry = tracers.get(id(code))
        if entry is None:
            path = os.path.abspath(code.co_filename)
            rel = path[len(prefix):] if path.startswith(prefix) else None
            watch = targets.get(rel)
            mine = watch and {line for _, _, line in code.co_lines()} & watch
            entry = tracers[id(code)] = (code, line_tracer(rel, mine) if mine else None)
        return entry[1]

    threading.settrace(trace)
    sys.settrace(trace)
    _keep_children_in_the_census(REASONS_ENV)


_SITECUSTOMIZE = f"""\
import os
if os.environ.get({LOG_ENV!r}):
    from tools.census import trace_this_process
    trace_this_process()
elif os.environ.get({REASONS_ENV!r}):
    from tools.census import trace_reason_lines
    trace_reason_lines()
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
        ({"backend"}, ["--backend", "hybrid"]),
        ({"trace"}, ["--trace", None, "--progress"]),
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


def run(workers: int = 2, log=sys.stderr) -> Tuple[Dict[str, set], Set[Tuple[str, int]]]:
    """Run every entry point, ``workers`` at a time (``repro.obs.export``
    after the rest, since it reads their trace); return the definitions
    each one reached and the knobs (``module:qualname(param)``) it turned,
    and the lines any of them ran, as (path relative to the package, line).
    Raises if any of them fails."""
    by_code = {(rel, str(first), name): key
               for key, (rel, first, name) in definitions().items()}
    reached: Dict[str, set] = {}
    lines: Set[Tuple[str, int]] = set()
    failures = []
    with tempfile.TemporaryDirectory(prefix="census-") as tmpdir:
        tmp = Path(tmpdir)
        boot = tmp / "boot"
        boot.mkdir()
        (boot / "sitecustomize.py").write_text(_SITECUSTOMIZE)
        points = entry_points(tmp)
        export = [p for p in points if p[0] == "repro.obs.export"]
        # The --quick runs go first, and ablations, the one run that turns on
        # the periodic INT table: between them they run the lines of the
        # hottest loops (the fused hop, Hpcc.on_ack), which the longer runs
        # then need not trace.
        rest = sorted((p for p in points if p[0] != "repro.obs.export"),
                      key=lambda p: "--quick" not in p[0] and p[0] != "ablations")
        batches = (rest, export)
        running: List[Tuple[str, subprocess.Popen, Path, float]] = []
        t_start = time.perf_counter()

        def start(n: int, ident: str, argv: List[str]) -> None:
            logpath = tmp / f"{n}.log"
            # What ran already need not be traced again: the union is the
            # same, and an entry point stops tracing a function once the
            # lines no earlier one ran have run.
            ran = tmp / f"{n}.ran"
            ran.write_text("".join(f"{rel}\t{line}\n" for rel, line in sorted(lines)))
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                [str(boot), str(PKG.parent), str(ROOT)]),
                **{LOG_ENV: str(logpath), RAN_ENV: str(ran)})
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
            log_lines = logpath.read_text().splitlines() if logpath.exists() else []
            hits = set()
            for fields in map(lambda line: line.split("\t"), log_lines):
                if len(fields) == 2:  # a line it ran
                    lines.add((fields[0], int(fields[1])))
                    continue
                key = by_code.get(tuple(fields[:3]))
                if key is not None:  # reached, or with a 4th field: a knob it turned
                    hits.add(key if len(fields) == 3 else f"{key}({fields[3]})")
            reached[ident] = hits

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
    return {ident: reached[ident] for ident, _ in points}, lines  # census order


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
    turned = {key: _compact([ident for ident in reached if key in reached[ident]], figures)
              for key in knobs()}
    doc = {
        "about": "Which src/repro definition each entry point reaches, and which "
                 "knob it turns (python -m tools.census; DESIGN.md §9.2).  Under "
                 "'definitions' a list names the entry points whose run entered the "
                 "body ('<figure> *': every invocation of it the census runs; "
                 "'benchmark' alone: kept for the benchmark); an object gives the "
                 "reason an unreached one stays.  Under 'knobs' a list names the "
                 "entry points that passed the parameter a value other than its "
                 "default; an empty one, that none did.",
        "reasons": REASONS,
        "entry_points": list(reached),
        "definitions": table,
        "knobs": turned,
    }
    return doc, problems


# -- the lines ---------------------------------------------------------------

#: An inline reason an unreached line stays, on the line or alone on the
#: line above it; it names the test that runs the line.
INLINE = re.compile(r"#\s*census:\s*(?P<reason>\S.*?)\s+(?:—|--)\s+(?P<test>\S+\.py::\S+)\s*$")

#: The branches whose last statement can make the whole branch a crash path.
_BRANCHES = {ast.If: ("body", "orelse"), ast.ExceptHandler: ("body",),
             ast.match_case: ("body",)}

#: What a ``# census:`` reason may not cover: each has lines of its own to check.
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _span(node) -> range:
    return range(node.lineno, node.end_lineno + 1)


def _source_reasons(tree: ast.Module, source: str) -> Tuple[Dict[int, str], List[int]]:
    """Line -> the reason the source gives it to stay unreached: the text
    of a ``# census:`` comment (:data:`INLINE`) for the lines of the
    statement it sits on, or, alone on its line, of the statement below it;
    else ``crash`` for a ``raise`` and for every line of a branch (an ``if``
    or ``else`` body, an ``except`` clause, a ``case``) that ends in one.
    And the lines of the comments it refuses: one whose statement holds a
    ``def`` or a ``class`` would let every line of it go unchecked."""
    reasons: Dict[int, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            reasons.update(dict.fromkeys(_span(node), "crash"))
        for field in _BRANCHES.get(type(node), ()):
            block = getattr(node, field)
            if block and isinstance(block[-1], ast.Raise):
                if isinstance(node, ast.ExceptHandler):
                    reasons.update(dict.fromkeys(_span(node), "crash"))
                for stmt in block:
                    reasons.update(dict.fromkeys(_span(stmt), "crash"))
    refused: List[int] = []
    for at, why, covered, _ in _inline_reasons(tree, source):
        if covered is None:
            refused.append(at)
        else:
            reasons.update(dict.fromkeys(covered, why))
    return reasons, refused


def _inline_reasons(tree: ast.Module, source: str):
    """Each ``# census:`` comment of a module, in source order: (the line
    it sits on, its reason, the lines it covers in order — its line, or
    alone on its line the next code line, and the statements starting
    there — or None if one of those holds a ``def`` or a ``class``, and
    the line it explains: that line, or for a compound statement (an
    ``if``, a loop, an ``except`` clause) the first line of its body)."""
    starts: Dict[int, list] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.ExceptHandler)):
            starts.setdefault(node.lineno, []).append(node)
    text = source.splitlines()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        match = INLINE.search(token.string) if token.type == tokenize.COMMENT else None
        if match is None:
            continue
        line = at = token.start[0]
        if text[line - 1].lstrip().startswith("#"):  # alone on its line: the next code line
            line = next(n for n in range(line + 1, len(text) + 1)
                        if text[n - 1].strip() and not text[n - 1].lstrip().startswith("#"))
        nodes = starts.get(line, ())
        if any(isinstance(inner, _DEFS) for node in nodes for inner in ast.walk(node)):
            yield at, None, None, None
            continue
        covered = sorted({line}.union(*map(_span, nodes)))
        body = getattr(nodes[0], "body", None) if nodes else None
        yield at, f"{match['reason']} — {match['test']}", covered, body[0].lineno if body else line


def unreached(source: str, module: str, rel: str, ran: Set[int],
              inherited: Dict[str, str]) -> Dict[str, Dict[int, Optional[str]]]:
    """For each ``def`` of one module (``module:qualname``, as
    :func:`definitions` names it): the lines of its body — its code
    object's, and those of the lambdas, comprehensions and classes inside it
    that are no def of their own — that are not in ``ran``, each by its
    offset from the line the def's code object starts on, with the reason
    it stays: the source's (:func:`_source_reasons`), else the def's own in
    ``inherited``, else None.  Offsets keep a def's result fixed when
    another def's lines move."""
    tree = ast.parse(source, rel)
    firsts = {(first, node.name): (key, first) for key, _, first, node, _ in _defs(tree, module, rel)}
    reasons, _ = _source_reasons(tree, source)
    out: Dict[str, Dict[int, Optional[str]]] = {key: {} for key, _ in firsts.values()}

    def visit(code, owner):
        if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
            owner = firsts[code.co_firstlineno, code.co_name]
        if owner is not None:
            key, first = owner
            for line in sorted(body_lines(code) - ran):
                out[key][line - first] = reasons.get(line, inherited.get(key))
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                visit(const, owner)

    visit(compile(source, rel, "exec"), None)
    return {key: dict(sorted(lines.items())) for key, lines in out.items()}


def _inherited(key: str, entry) -> Optional[str]:
    """The reason every line of a def stays: the def's own, if it is kept
    unreached; ``benchmark`` if only the benchmark reaches it; ``oracle`` or
    ``benchmark`` if a :data:`KEEP` entry keeps its module for one."""
    if isinstance(entry, dict):
        return entry["keep"]
    if entry == ["benchmark"]:
        return "benchmark"
    keep = _keep(key)
    return keep[1][0] if keep and keep[1][0] in ("oracle", "benchmark") else None


def _names_a_test(reason: str) -> bool:
    """Whether an inline reason's test id (``path.py::[Class::]test``)
    names a test function in a file of the repository."""
    path, *_, name = reason.rsplit(" — ", 1)[-1].split("::")
    target = ROOT / path
    return target.is_file() and re.search(
        rf"^\s*def {re.escape(name.split('[')[0])}\(", target.read_text(encoding="utf-8"),
        re.MULTILINE) is not None


def line_problems(table: dict, ran: Set[Tuple[str, int]], log=sys.stderr) -> List[str]:
    """Every line of a ``def`` under ``src/repro`` that no entry point ran
    and that has no reason to stay (:func:`unreached`; ``table`` is the
    census's ``definitions``), every inline reason that names no test,
    every one that would cover a ``def`` or a ``class``, and every one
    whose test does not run the first line it excuses from the one it
    explains on (:func:`reason_problems`); prints the line count by reason to ``log``."""
    problems = []
    counts: Dict[str, int] = {}
    firsts = definitions()
    targets: List[Tuple[str, int, str]] = []
    for module, rel, source in _modules():
        mine = {line for r, line in ran if r == rel}
        inherited = {key: _inherited(key, table[key]) for key in firsts if key.startswith(module + ":")}
        text = source.splitlines()
        excused: Dict[int, str] = {}  # line -> the inline reason naming a test
        for key, lines in unreached(source, module, rel, mine, inherited).items():
            for offset, reason in lines.items():
                line = firsts[key][1] + offset
                kind = reason if reason in REASONS or reason is None else "inline"
                counts[str(kind)] = counts.get(str(kind), 0) + 1
                where = f"src/repro/{rel}:{line}: {key} +{offset}"
                if reason is None:
                    problems.append(f"{where}: unreached, and no reason: {text[line - 1].strip()}")
                elif kind == "inline" and not _names_a_test(reason):
                    problems.append(f"{where}: its '# census:' reason names no test: {reason}")
                elif kind == "inline":
                    excused[line] = reason
        for at, why, covered, explained in _inline_reasons(ast.parse(source, rel), source):
            if covered is None:
                problems.append(f"src/repro/{rel}:{at}: a '# census:' reason may not cover a def or a class")
                continue
            first = next((line for line in covered if line >= explained and excused.get(line) == why), None)
            if first is not None:
                targets.append((rel, first, why.rsplit(" — ", 1)[1]))
    print(f"census: {len(ran)} src/repro lines ran; unreached, by reason: "
          + ", ".join(f"{k} {n}" for k, n in sorted(counts.items())), file=log, flush=True)
    return problems + reason_problems(targets, log)


def reason_problems(targets: List[Tuple[str, int, str]], log=sys.stderr) -> List[str]:
    """Run each test the ``targets`` name once, all in one pytest child
    whose processes trace the targets' lines (:func:`trace_reason_lines`),
    and return a problem for each target whose test did not run its line.
    A target is (path relative to the package, the first line an inline
    reason excuses, the test id the reason names); a test id without
    ``[params]`` is run, and matched, with every parametrization."""
    if not targets:
        return []
    tests = sorted({test for _, _, test in targets})
    with tempfile.TemporaryDirectory(prefix="census-reasons-") as tmpdir:
        tmp = Path(tmpdir)
        (tmp / "boot").mkdir()
        (tmp / "boot" / "sitecustomize.py").write_text(_SITECUSTOMIZE)
        watch = tmp / "lines"
        watch.write_text("".join(f"{rel}\t{line}\n" for rel, line, _ in targets))
        env = {k: v for k, v in os.environ.items() if k != LOG_ENV}
        env.update(PYTHONPATH=os.pathsep.join([str(tmp / "boot"), str(PKG.parent), str(ROOT)]),
                   **{REASONS_ENV: str(watch)})
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                              cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        print(f"census: {len(tests)} reason tests: {time.perf_counter() - t0:.1f} s, exit "
              f"{proc.returncode}", file=log, flush=True)
        if proc.returncode not in (0, 1):  # 1: a test failed; tier-1 reports that
            raise RuntimeError(f"the reason tests did not run:\n{proc.stdout[-3000:]}")
        log_path = Path(f"{watch}.log")
        hits = log_path.read_text().splitlines() if log_path.exists() else []
    ran: Dict[Tuple[str, int], set] = {}
    for rel, line, test in (hit.split("\t") for hit in hits):
        ran.setdefault((rel, int(line)), set()).add(test)
    return [f"src/repro/{rel}:{line}: its '# census:' reason's test does not run it: {test}"
            for rel, line, test in targets
            if not any(t == test or ("[" not in test and t.split("[")[0] == test)
                       for t in ran.get((rel, line), ()))]


def document(_rows: dict) -> dict:
    """The census document, freshly run (it has no rows of its own to
    compute); exits on problems, listing them."""
    reached, lines = run()
    doc, problems = census(reached)
    problems += line_problems(doc["definitions"], lines)
    if problems:
        print("the census has problems (delete what nothing reaches, or give it a "
              "KEEP reason or, for a line, a '# census:' one; drop KEEP entries "
              "that keep nothing):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        raise SystemExit(1)
    return doc


CENSUS = golden.Table(CENSUS_PATH, document=document, groups=("definitions", "knobs"))
TABLES = (CENSUS,)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="fail when a fresh census differs from tests/census.json")
    if not ap.parse_args(argv).check:
        sys.stdout.write(golden.dumps(CENSUS, document({})))
        return 0
    diff = golden.check(CENSUS)
    for key, old, new, _ in diff:
        print(f"  {key}: {json.dumps(old)} -> {json.dumps(new)}", file=sys.stderr)
    print(f"the census moved ({len(diff)} rows); say why in CHANGES.md, naming census.json, "
          "then re-bless with python -m tools.golden --rebless census" if diff
          else "census unchanged", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    raise SystemExit(main())
