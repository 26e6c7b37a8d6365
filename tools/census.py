#!/usr/bin/env python
"""Reach and value census: which ``src/repro`` definition does some entry
point run, and which knob does it turn?

Every entry point a user has is run once under ``sys.setprofile``, and every
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
any process it started: forked pool and shard workers inherit the profile
function; fresh interpreters (spawned workers, the suite's children) load
it through a ``sitecustomize`` on ``PYTHONPATH``.  Each process appends a
line per newly entered code object to the entry point's log the moment it
enters it, so nothing depends on an exit hook — forked workers leave through
``os._exit``, which runs none.  A knob is logged the same way, by the first
call in a process that turns it; after that the hook stops looking at it.

Usage, from the repository root::

    python -m tools.census                    # run the census, print it
    python -m tools.census --check            # run it, diff against tests/census.json
    python -m tools.golden --rebless census   # run it, rewrite tests/census.json

``tests/census.json`` is the ``census`` table of the identity store
(``tools/golden.py``), which refuses to re-bless it until CHANGES.md says why
the reach or a knob moved.  A full run takes six to eight minutes on two
vCPUs, two entry points at a time.
"""

from __future__ import annotations

import argparse
import ast
import gc
import json
import os
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tools import golden

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "repro"
CENSUS_PATH = ROOT / "tests" / "census.json"

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
    "repro.net.switch:Switch.on_departure": (
        "public", "Port inlines it for a stock switch and tests a peer's hook against it"),
    "repro.net.switch:PfcWatchdog._storm_off": ("public", "PfcWatchdog._poll, when a storm clears"),
    "repro.obs.trace:EventTracer._hook_lb.<locals>": (
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


def _walk():
    """Every ``def`` under ``src/repro``, in file and source order:
    (``module:qualname``, path relative to the package, the line its code
    object starts on, the ``ast`` node, whether it is nested in a def).  A
    qualname defined twice in one module (a function defined on two
    branches) gets ``#2`` appended."""
    seen = set()
    for path in sorted(PKG.rglob("*.py")):
        module = _module_name(path)
        rel = path.relative_to(PKG).as_posix()

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

        yield from walk(ast.parse(path.read_text(encoding="utf-8"), str(path)), "", False)


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


# -- the profile hook, in every process of a run -----------------------------

def profile_this_process() -> None:
    """Record, in the log ``$REPRO_CENSUS_LOG`` names, every ``src/repro``
    code object this process (and any process forked from it) enters, and
    the first call that passes each of its knobs a value other than its
    default.  Installed by the census's ``sitecustomize``."""
    import threading

    fd = os.open(os.environ[LOG_ENV], os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    prefix = str(PKG) + os.sep
    # id -> (code object, which the entry keeps alive (ids unique); the
    # (param, default) pairs no call has changed yet; its log-line head;
    # the frame offset a call starts at — a generator's later resumes,
    # whose locals the body may have rebound, start elsewhere)
    seen = {}
    bearing = []  # [_knob_bearing()], built on first use (forks inherit it)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entry = seen.get(id(code))
            if entry is None:
                path = os.path.abspath(code.co_filename)
                if not path.startswith(prefix):
                    seen[id(code)] = (code, None)
                    return
                where = (path[len(prefix):], code.co_firstlineno, code.co_name)
                if not bearing:
                    bearing.append(_knob_bearing())
                watch = _defaults(code, frame.f_globals) if where in bearing[0] else None
                head = "\t".join(map(str, where))
                entry = seen[id(code)] = (code, watch, head, frame.f_lasti)
                # One write per line on an O_APPEND descriptor: lines
                # from forked workers sharing it never interleave.
                os.write(fd, f"{head}\n".encode())
            watch = entry[1]
            if watch and frame.f_lasti == entry[3]:
                args = frame.f_locals
                for i in range(len(watch) - 1, -1, -1):
                    name, default = watch[i]
                    value = args.get(name, default)
                    if value is not default and _changed(value, default):
                        del watch[i]  # a knob turned once is a knob: stop looking
                        os.write(fd, f"{entry[2]}\t{name}\n".encode())

    threading.setprofile(profile)
    sys.setprofile(profile)
    _keep_children_in_the_census()


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


def run(workers: int = 2, log=sys.stderr) -> Dict[str, set]:
    """Run every entry point, ``workers`` at a time (``repro.obs.export``
    after the rest, since it reads their trace); return the definitions
    each one reached and the knobs (``module:qualname(param)``) it turned.
    Raises if any of them fails."""
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
            hits = set()
            for fields in map(lambda line: line.split("\t"), lines):
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


def document(_rows: dict) -> dict:
    """The census document, freshly run (it has no rows of its own to
    compute); exits on problems, listing them."""
    doc, problems = census(run())
    if problems:
        print("the census has problems (delete what nothing reaches, or give it a "
              "KEEP reason; drop KEEP entries that keep nothing):", file=sys.stderr)
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
