"""fncc-lint configuration: compiled-in defaults + ``[tool.fncc-lint]``.

The defaults below ARE the repo policy — pyproject.toml entries override or
extend them, which is how new sanctioned modules and ownership grants land
in review rather than in tool code.  TOML loading uses :mod:`tomllib` where
available (3.11+); on the 3.9/3.10 CI floor a vendored mini-parser covers
the small TOML subset this repo's pyproject actually uses (tables, string /
string-list / bool / int values).  No third-party dependency either way.
"""

from __future__ import annotations

import os
import re
from typing import Any, Dict, List, Optional

try:  # Python 3.11+
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised on the 3.9/3.10 CI floor
    _toml = None

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


def _deep_merge(base: Any, override: Any) -> Any:
    """Dict-aware merge: dicts merge key-wise, everything else replaces."""
    if isinstance(base, dict) and isinstance(override, dict):
        out = dict(base)
        for k, v in override.items():
            out[k] = _deep_merge(base.get(k), v) if k in base else v
        return out
    return override


# -- mini TOML subset parser (3.9/3.10 fallback) -----------------------------

_TABLE_RE = re.compile(r"^\[([^\]]+)\]\s*$")
_KV_RE = re.compile(r"^([A-Za-z0-9_.\-]+|\"[^\"]+\"|'[^']+')\s*=\s*(.+)$")


def _strip_comment(line: str) -> str:
    out = []
    in_str: Optional[str] = None
    for ch in line:
        if in_str:
            if ch == in_str:
                in_str = None
        elif ch in "\"'":
            in_str = ch
        elif ch == "#":
            break
        out.append(ch)
    return "".join(out).strip()


def _parse_value(raw: str) -> Any:
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        if not inner:
            return []
        # split on top-level commas (strings may not contain commas in our
        # subset-of-a-subset; repo paths and rule names never do)
        return [_parse_value(part) for part in inner.split(",") if part.strip()]
    if (raw.startswith('"') and raw.endswith('"')) or (
        raw.startswith("'") and raw.endswith("'")
    ):
        return raw[1:-1]
    if raw == "true":
        return True
    if raw == "false":
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"mini-toml: unsupported value {raw!r}")


def _split_key(dotted: str) -> List[str]:
    """Split a table header / key on dots, honoring quoted segments
    (``[tool.fncc-lint.h301.owners]`` and ``"_heap" = [...]``)."""
    parts: List[str] = []
    buf = ""
    in_str: Optional[str] = None
    for ch in dotted:
        if in_str:
            if ch == in_str:
                in_str = None
            else:
                buf += ch
        elif ch in "\"'":
            in_str = ch
        elif ch == ".":
            parts.append(buf.strip())
            buf = ""
        else:
            buf += ch
    parts.append(buf.strip())
    return [p for p in parts if p]


def _mini_toml_load(text: str) -> dict:
    """Parse the TOML subset this repo's pyproject uses: ``[dotted.tables]``,
    ``key = string | [strings] | bool | int | float``.  Multi-line arrays are
    joined first.  Unsupported constructs in *irrelevant* sections are
    skipped; errors only surface for sections we later read."""
    root: Dict[str, Any] = {}
    current = root
    # Join multi-line arrays: accumulate until brackets balance.
    logical: List[str] = []
    pending = ""
    for line in text.splitlines():
        line = _strip_comment(line)
        if not line:
            continue
        pending = f"{pending} {line}".strip() if pending else line
        if pending.count("[") > pending.count("]") or pending.endswith(","):
            # inside a multi-line array (table headers always balance)
            continue
        logical.append(pending)
        pending = ""
    if pending:
        logical.append(pending)
    for line in logical:
        m = _TABLE_RE.match(line)
        if m:
            current = root
            for part in _split_key(m.group(1)):
                current = current.setdefault(part, {})
            continue
        m = _KV_RE.match(line)
        if not m:
            continue  # arrays-of-tables etc.: not used by sections we read
        key_parts = _split_key(m.group(1))
        try:
            value = _parse_value(m.group(2))
        except ValueError:
            continue
        tgt = current
        for part in key_parts[:-1]:
            tgt = tgt.setdefault(part, {})
        tgt[key_parts[-1]] = value
    return root


def load_pyproject(path: str) -> dict:
    """Parse pyproject.toml into a dict (tomllib, or the mini-parser)."""
    if _toml is not None:
        with open(path, "rb") as fh:
            return _toml.load(fh)
    with open(path, "r", encoding="utf-8") as fh:
        return _mini_toml_load(fh.read())


def load_config(root: str, pyproject: Optional[str] = None) -> dict:
    """The merged lint config for a repo rooted at ``root``."""
    cfg = DEFAULTS
    path = pyproject or os.path.join(root, "pyproject.toml")
    if os.path.isfile(path):
        data = load_pyproject(path)
        override = data.get("tool", {}).get("fncc-lint", {})
        if override:
            cfg = _deep_merge(cfg, override)
    return cfg
