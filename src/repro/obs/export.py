"""Chrome trace-event JSON export (object-format, Perfetto-loadable).

One run (or several cells of an experiment) serialize to the
`trace-event` object format: ``{"traceEvents": [...], "otherData": ...}``.
Each cell gets its own ``pid`` with a ``process_name`` metadata record;
each trace category gets a stable ``tid`` with a ``thread_name`` record,
so the chrome://tracing / Perfetto timeline shows one swim-lane per
category per cell.  Timestamps convert from integer picoseconds to the
format's microseconds (float; ~50 ps resolution survives to double well
beyond any horizon we run).

The module doubles as the CI validator::

    python -m repro.obs.export /tmp/t.json --require-registry

checks the JSON schema (required event keys, phase-specific fields) and,
with ``--require-registry``, the registry snapshot keys embedded under
``otherData.registry`` by the ``fncc-exp --trace`` path.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.trace import CATEGORIES, EventTracer

#: Stable swim-lane ids per category.
TRACE_TIDS: Dict[str, int] = {c: i + 1 for i, c in enumerate(CATEGORIES)}

#: Registry snapshot counters every instrumented run must carry — the CI
#: contract checked by ``--require-registry``.
REQUIRED_REGISTRY_COUNTERS = ("engine.events_dispatched", "ports.tx_packets")


def chrome_trace_events(tracer: EventTracer, pid: int = 0,
                        label: Optional[str] = None) -> List[dict]:
    """Flatten one tracer's ring into trace-event dicts."""
    out: List[dict] = []
    if label is not None:
        out.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
    used = {ev.cat for ev in tracer.events}
    for cat in sorted(used):
        out.append({
            "name": "thread_name", "ph": "M", "pid": pid,
            "tid": TRACE_TIDS[cat], "args": {"name": cat},
        })
    for ev in tracer.events:
        d = {
            "name": ev.name,
            "cat": ev.cat,
            "ph": ev.ph,
            "ts": ev.ts_ps / 1e6,
            "pid": pid,
            "tid": TRACE_TIDS[ev.cat],
        }
        if ev.ph == "X":
            d["dur"] = ev.dur_ps / 1e6
        if ev.args:
            d["args"] = ev.args
        out.append(d)
    return out


def export_chrome_trace(
    path: str,
    tracers: Union[EventTracer, Sequence[Tuple[str, EventTracer]]],
    registry: Optional[dict] = None,
) -> dict:
    """Write one Chrome trace file.

    ``tracers`` is either a single :class:`EventTracer` or ``(label,
    tracer)`` pairs — one pid per cell.  ``registry`` (a snapshot dict, or
    a merge of several) rides along under ``otherData.registry`` so one
    file answers both "what happened when" and "how much of it".
    Returns the written document.
    """
    if isinstance(tracers, EventTracer):
        tracers = [(None, tracers)]
    events: List[dict] = []
    dropped = 0
    for pid, (label, tracer) in enumerate(tracers):
        events.extend(chrome_trace_events(tracer, pid=pid, label=label))
        dropped += tracer.dropped
    doc: dict = {"traceEvents": events, "displayTimeUnit": "ns"}
    other: dict = {}
    if registry is not None:
        other["registry"] = registry
    if dropped:
        other["ring_evicted_events"] = dropped
    if other:
        doc["otherData"] = other
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return doc


def validate_chrome_trace(path: str, require_registry: bool = False) -> dict:
    """Validate a trace file's schema; raises ``ValueError`` on the first
    violation.  Returns ``{"events": n, "categories": {...}, ...}``."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a trace-event object file (no 'traceEvents')")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    cats: Dict[str, int] = {}
    n = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event #{i} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"event #{i} missing {key!r}")
        ph = ev["ph"]
        if ph == "M":
            continue
        for key in ("cat", "ts"):
            if key not in ev:
                raise ValueError(f"event #{i} ({ph!r}) missing {key!r}")
        if not isinstance(ev["ts"], (int, float)):
            raise ValueError(f"event #{i}: 'ts' must be numeric")
        if ph == "X" and "dur" not in ev:
            raise ValueError(f"event #{i}: complete event missing 'dur'")
        if ph not in ("i", "I", "X", "B", "E", "C"):
            raise ValueError(f"event #{i}: unexpected phase {ph!r}")
        cats[ev["cat"]] = cats.get(ev["cat"], 0) + 1
        n += 1
    info = {"events": n, "categories": cats}
    registry = doc.get("otherData", {}).get("registry")
    if require_registry:
        if registry is None:
            raise ValueError("no registry snapshot under otherData.registry")
        counters = registry.get("counters", {})
        for key in REQUIRED_REGISTRY_COUNTERS:
            if key not in counters:
                raise ValueError(f"registry snapshot missing counter {key!r}")
        info["registry_counters"] = len(counters)
    elif registry is not None:
        info["registry_counters"] = len(registry.get("counters", {}))
    return info


def main(argv: Optional[Iterable[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.export",
        description="Validate a Chrome trace-event JSON file.",
    )
    parser.add_argument("path", help="trace file to validate")
    parser.add_argument(
        "--require-registry",
        action="store_true",
        help="also require the embedded registry snapshot and its core keys",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        info = validate_chrome_trace(args.path, require_registry=args.require_registry)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"INVALID: {exc}")
        return 1
    cats = ", ".join(f"{c}={n}" for c, n in sorted(info["categories"].items()))
    extra = (
        f", registry counters={info['registry_counters']}"
        if "registry_counters" in info
        else ""
    )
    print(f"OK: {info['events']} events ({cats}){extra}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
