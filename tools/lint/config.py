"""fncc-lint configuration: :data:`DEFAULTS` is the repo policy, and the
only place it lives.  A new sanctioned module or ownership grant is an edit
here, so it lands in review next to the rule it relaxes.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Ambient entropy / wall-clock sources banned outside the sanctioned RNG
#: module (D101 everywhere; D104 re-bans them in fault modules with the
#: stricter no-ad-hoc-RNG policy layered on top).
_ENTROPY_CALLS: List[str] = [
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
]

#: Repo policy.  Keys are lower-cased rule names; ``paths``/``baseline`` are
#: tool-level.  Path values are repo-relative posix paths.
DEFAULTS: Dict[str, Any] = {
    "paths": ["src/repro"],
    "baseline": "tools/lint/baseline.json",
    "d101": {
        # The sanctioned seeded-RNG module (DESIGN.md §4): named streams
        # derived from the run seed.  Everything else draws through it.
        "allow_modules": ["src/repro/sim/rng.py"],
        "banned_calls": list(_ENTROPY_CALLS),
    },
    "d104": {
        # Fault-schedule modules (DESIGN.md §10): every draw must come from
        # the plan's named stream off the topology seed factory.  Same
        # entropy ban as D101, plus ad-hoc RNG construction (hardcoded in
        # the rule) — and no allow-list: nothing in faults/ is exempt.
        "fault_modules": ["src/repro/faults"],
        "banned_calls": list(_ENTROPY_CALLS),
    },
    "d102": {
        "schedule_calls": ["schedule", "schedule_at", "schedule_reuse"],
        "heap_calls": ["heapq.heappush", "heappush"],
    },
    "d103": {
        "schedule_calls": ["schedule", "schedule_at"],
        # schedule_reuse(ev, delay): the key expression is argument 1.
        "arg1_calls": ["schedule_reuse"],
    },
    "p201": {"spec_classes": ["RunSpec"]},
    "p202": {"spec_classes": ["RunSpec"]},
    "s501": {
        # Shard isolation (DESIGN.md §11): only the boundary adapter may
        # reach into fabric objects' private machinery; everything else in
        # the shard package drives fabrics through their public surface so
        # the in-process and process-backed runtimes stay interchangeable.
        "shard_modules": ["src/repro/shard"],
        "adapter_modules": ["src/repro/shard/boundary.py"],
    },
    "h301": {
        # protected attribute -> modules allowed to assign it.  port.py is a
        # sanctioned friend of the engine: Port._tx_deliver inlines
        # schedule_reuse's body (documented at both sites).
        "owners": {
            "_heap": ["src/repro/sim/engine.py", "src/repro/net/port.py"],
            "_seq": ["src/repro/sim/engine.py", "src/repro/net/port.py"],
            "_running": ["src/repro/sim/engine.py"],
            "_stopped": ["src/repro/sim/engine.py"],
            "alive": ["src/repro/sim/engine.py", "src/repro/net/port.py"],
            "_acct": ["src/repro/net/port.py"],
            "_inflight": ["src/repro/net/port.py"],
            "_del_ev": ["src/repro/net/port.py"],
            "_queued_bytes": ["src/repro/net/port.py"],
            "_uncommitted": ["src/repro/net/port.py"],
            "_ser": ["src/repro/net/port.py"],
            "_rt_cache": ["src/repro/net/port.py"],
            "next_free_ps": ["src/repro/net/port.py"],
        },
    },
    "h303": {
        # Libraries no paper figure's packet path executes (DESIGN.md §5.4):
        # imported inside the functions that use them, never at module
        # import, so `import repro` and every spawn worker skip them.
        # numpy's reductions live in metrics/stats.py, bit-equal.
        "deferred_imports": ["scipy", "networkx", "numpy"],
    },
    "h302": {
        # Modules whose classes are instantiated per-frame / per-event: an
        # instance __dict__ here is a real memory + attribute-lookup cost.
        # switch.py/node.py are deliberately absent — the train-gate protocol
        # installs instance-dict receive wrappers on them (DESIGN.md §8).
        "hot_modules": [
            "src/repro/sim/engine.py",
            "src/repro/sim/timer.py",
            "src/repro/net/packet.py",
            "src/repro/net/port.py",
            "src/repro/transport/flow.py",
        ],
        "exempt_bases": [
            "Exception",
            "RuntimeError",
            "ValueError",
            "Enum",
            "IntEnum",
            "NamedTuple",
            "Protocol",
        ],
    },
    "o401": {
        # Collector/exporter modules consume registry snapshots; mutating a
        # metric from one would double-count on re-export (DESIGN.md §8:
        # reads are pull-based, writes belong to the instrumented code).
        "collector_modules": [
            "src/repro/obs/export.py",
            "src/repro/obs/flight.py",
            "src/repro/obs/progress.py",
        ],
        "mutators": ["inc", "observe", "set"],
    },
    "o402": {
        # Switch owns the gate.  Tap-like hooks elsewhere must go through that protocol (§8) and
        # carry a justified suppression.
        "owner_modules": ["src/repro/net/switch.py"],
    },
}
