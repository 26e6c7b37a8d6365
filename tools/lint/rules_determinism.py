"""D-series: determinism rules (DESIGN.md §4, §10).

The determinism contract says a run is a pure function of its seed: same
seed, same fingerprints, on any machine, under any PYTHONHASHSEED.  These
rules catch the ways code silently breaks that — ambient entropy (D101),
hash-ordered iteration feeding the event queue (D102), float arithmetic
in event-key expressions (D103), and fault-module randomness that does
not derive from the plan's named seed stream (D104).
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from tools.lint.core import FileContext, Finding, rule

#: The sanctioned seeded-RNG module (DESIGN.md §4): named streams derived
#: from the run seed.  Everything else draws through it.
RNG_MODULES = ("src/repro/sim/rng.py",)

#: Ambient entropy / wall-clock sources banned outside :data:`RNG_MODULES`
#: (D101 everywhere; D104 re-bans them in fault modules with the stricter
#: no-ad-hoc-RNG policy layered on top).
ENTROPY_CALLS = frozenset({
    "random.random",
    "random.randint",
    "random.randrange",
    "random.choice",
    "random.choices",
    "random.shuffle",
    "random.sample",
    "random.uniform",
    "random.gauss",
    "random.normalvariate",
    "random.expovariate",
    "random.betavariate",
    "random.paretovariate",
    "random.triangular",
    "random.vonmisesvariate",
    "random.seed",
    "random.getrandbits",
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbelow",
})

#: Fault-schedule modules (DESIGN.md §10): every draw must come from the
#: plan's named stream off the topology seed factory.  No allow-list:
#: nothing in faults/ is exempt.
FAULT_MODULES = ("src/repro/faults",)

#: Calls that put an event on the queue (D102) and whose first argument is
#: its key (D103); ``schedule_reuse(ev, delay)`` keys on its second.
SCHEDULE_CALLS = frozenset({"schedule", "schedule_at"})
ARG1_SCHEDULE_CALLS = frozenset({"schedule_reuse"})
HEAP_CALLS = frozenset({"heapq.heappush", "heappush"})


@rule(
    "D101",
    "ambient entropy (random.*/time.time/datetime.now/os.urandom/uuid/"
    "key=id) outside the sanctioned seeded-RNG module",
    "DESIGN.md §4",
)
def check_d101(ctx: FileContext) -> Iterator[Finding]:
    if ctx.in_paths(RNG_MODULES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = ctx.dotted(node.func)
        if dotted in ENTROPY_CALLS:
            yield Finding(
                "D101",
                ctx.relpath,
                node.lineno,
                node.col_offset + 1,
                f"call to {dotted}() draws ambient entropy/wall-clock; use a "
                f"named stream from repro.sim.rng (seeded) instead",
            )
        elif dotted == "random.Random" and not node.args and not node.keywords:
            yield Finding(
                "D101",
                ctx.relpath,
                node.lineno,
                node.col_offset + 1,
                "random.Random() with no seed is OS-entropy seeded; derive "
                "the stream from the run seed (repro.sim.rng)",
            )
        elif dotted in ("sorted", "min", "max") or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
        ):
            for kw in node.keywords:
                if kw.arg == "key" and _is_id_key(kw.value):
                    yield Finding(
                        "D101",
                        ctx.relpath,
                        node.lineno,
                        node.col_offset + 1,
                        "ordering by id() depends on allocator addresses; "
                        "order by a stable field (flow_id, name, seq)",
                    )


def _is_id_key(expr: ast.AST) -> bool:
    """``key=id`` or ``key=lambda ...: ...id(...)...``."""
    if isinstance(expr, ast.Name) and expr.id == "id":
        return True
    if isinstance(expr, ast.Lambda):
        for sub in ast.walk(expr.body):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"
            ):
                return True
    return False


def _is_set_producing(ctx: FileContext, expr: ast.AST) -> str:
    """Classify an iterable expression as hash-ordered, returning a human
    label ('' when ordered).  ``sorted(...)`` at the top normalizes anything.
    """
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(expr, ast.Call):
        dotted = ctx.dotted(expr.func)
        if dotted in ("set", "frozenset"):
            return f"{dotted}()"
        if isinstance(expr.func, ast.Attribute) and expr.func.attr == "keys":
            return ".keys()"
    return ""


def _body_schedules(ctx: FileContext, body: List[ast.stmt]) -> bool:
    sched = SCHEDULE_CALLS | ARG1_SCHEDULE_CALLS
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr in sched:
                return True
            if ctx.dotted(node.func) in HEAP_CALLS:
                return True
    return False


@rule(
    "D102",
    "iteration over a set/.keys() view feeding schedule()/heappush — "
    "hash-ordered scheduling",
    "DESIGN.md §4",
)
def check_d102(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.For):
            continue
        label = _is_set_producing(ctx, node.iter)
        if not label:
            continue
        if _body_schedules(ctx, node.body):
            yield Finding(
                "D102",
                ctx.relpath,
                node.lineno,
                node.col_offset + 1,
                f"loop over {label} schedules events: iteration order is "
                f"hash-/insertion-dependent and becomes the event tiebreak; "
                f"iterate a sorted() or list-ordered collection",
            )


#: Ad-hoc RNG constructors: even *seeded*, these are parallel entropy roots
#: — a fault schedule drawn from one replays differently the moment anyone
#: reorders construction, and its seed is invisible to the run fingerprint.
_ADHOC_RNGS = (
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
)


@rule(
    "D104",
    "fault-module randomness not derived from the plan's named seed "
    "stream (ambient random.*/time sources, or ad-hoc RNG construction)",
    "DESIGN.md §10",
)
def check_d104(ctx: FileContext) -> Iterator[Finding]:
    """Replay of an armed :class:`FaultPlan` must be byte-identical per
    seed (ISSUE: faultmatrix fingerprints match across ``--jobs``).  That
    holds only if *every* draw a fault module makes flows from the plan's
    named stream (``seeds.stream("faults.<plan>")``) — module-level
    ``random.*``, wall-clock sources, and privately constructed RNGs all
    break it, ambient or not."""
    if not ctx.in_paths(FAULT_MODULES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = ctx.dotted(node.func)
        if dotted in ENTROPY_CALLS:
            yield Finding(
                "D104",
                ctx.relpath,
                node.lineno,
                node.col_offset + 1,
                f"fault schedules must be a pure function of the plan's "
                f"named seed: {dotted}() draws outside the seed factory; "
                f"use seeds.stream('faults.<plan>') (repro.sim.rng)",
            )
        elif dotted in _ADHOC_RNGS:
            yield Finding(
                "D104",
                ctx.relpath,
                node.lineno,
                node.col_offset + 1,
                f"{dotted}() builds a private RNG in a fault module; even "
                f"seeded, its draws are invisible to the run seed — derive "
                f"the stream via seeds.stream('faults.<plan>') instead",
            )


def _float_in_key_expr(expr: ast.AST) -> bool:
    """True if the event-key expression performs float arithmetic *itself*.

    Calls are trusted — units helpers like ``us(1.5)`` return ints, and a
    top-level ``round()``/``int()`` wrapper launders anything inside it —
    so the walk prunes at every Call node and only inspects the arithmetic
    the expression performs directly.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            continue  # never descend into a call's arguments
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


@rule(
    "D103",
    "float arithmetic in an event-key (schedule delay/time) expression",
    "DESIGN.md §4",
)
def check_d103(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        name = node.func.attr
        if name in SCHEDULE_CALLS and node.args:
            key_expr = node.args[0]
        elif name in ARG1_SCHEDULE_CALLS and len(node.args) >= 2:
            key_expr = node.args[1]
        else:
            continue
        if isinstance(key_expr, ast.Call):
            continue  # a call's return feeds the key: trusted (see helper)
        if _float_in_key_expr(key_expr):
            yield Finding(
                "D103",
                ctx.relpath,
                node.lineno,
                node.col_offset + 1,
                f"{name}() key expression uses float arithmetic (/ or a float "
                f"literal); event keys are integer picoseconds — use // or "
                f"wrap in round()/int() (repro.units helpers return ints)",
            )
