"""Runtime sanitizers: the event-tie detector (DESIGN.md §9).

A *tie* is two live events scheduled at the same integer-picosecond
timestamp.  The engine's ``(time, lane, seq)`` key makes their dispatch
order total and reproducible: the lane is a static topology property
(identical on every shard of a partitioned run), and same-lane ties fall
back to ``seq`` — insertion order, an accident of code layout, not a law
of the modeled system — which stays safe because same-lane events belong
to one entity whose causal creation order every replica replays.  A tie
site is still an **ordering hazard** worth mapping: the simulation
analog of a data race.  The tie detector is the race detector — it
records every heap pop whose timestamp ties another pending live event,
attributes both callbacks to ``module:qualname``, and aggregates the
pairs into a report the sharded-engine design consumes as its
ordering-hazard map (benign/commutative sites need no synchronization;
ordering-sensitive sites pin the conservative-sync protocol).

Opt-in only (``Simulator(sanitize="tie")`` or ``REPRO_SANITIZE=tie``):
the un-sanitized dispatch loop is untouched, and the sanitized loop is
observation-only — event order, timestamps, RNG draws and fingerprints
are byte-identical with the detector on or off (pinned by
``tests/sim/test_sanitizers.py``).

This module must stay stdlib-only and import nothing from
:mod:`repro.sim.engine` (the engine imports it).
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, Iterable, Optional, Tuple, Union

#: The modes ``Simulator(sanitize=...)`` / ``REPRO_SANITIZE`` accept.
#: ``tie`` — event-tie detector (this module).
SANITIZE_MODES = frozenset({"tie"})

#: Version tag of the tie-report artifact schema (DESIGN.md §9).
TIE_REPORT_SCHEMA = "fncc-tie-report/v1"


def parse_sanitize(spec: Union[None, str, Iterable[str]]) -> FrozenSet[str]:
    """Normalize a sanitize spec (``"tie"``, iterable, or None/"")
    into a frozenset of mode names, rejecting unknown modes loudly."""
    if spec is None:
        spec = ""
    if isinstance(spec, str):
        parts = [p.strip() for p in spec.replace(";", ",").split(",")]
        modes = frozenset(p for p in parts if p and p != "off")
    else:
        modes = frozenset(spec)
    unknown = modes - SANITIZE_MODES
    if unknown:
        raise ValueError(
            f"unknown sanitize mode(s) {sorted(unknown)}; "
            f"valid: {sorted(SANITIZE_MODES)} (comma-separated)"
        )
    return modes


def callback_site(fn) -> str:
    """``module:qualname`` attribution for an event callback.

    Bound methods attribute to the underlying function (so every port's
    ``_tx_deliver`` aggregates to one site); lambdas/partials fall back to
    whatever name they carry.  This is the site key of the tie report —
    stable across runs, seeds and machines."""
    f = getattr(fn, "__func__", fn)
    mod = getattr(f, "__module__", None) or "?"
    qual = getattr(f, "__qualname__", None) or getattr(f, "__name__", None)
    if qual is None:
        qual = type(fn).__name__
    return f"{mod}:{qual}"


class TieRecorder:
    """Aggregates same-timestamp heap-pop ties by callback-site pair.

    One instance per sanitized :class:`~repro.sim.engine.Simulator`.  The
    recorder never touches simulation state: it only reads callback
    identities at pop time, so a sanitized run is byte-identical to an
    un-sanitized one.
    """

    __slots__ = ("pairs", "tied_pops", "total_pops", "max_sites")

    def __init__(self, max_sites: int = 4096) -> None:
        # (popped_site, pending_site) -> [count, first_time_ps]
        self.pairs: Dict[Tuple[str, str], list] = {}
        self.tied_pops = 0
        self.total_pops = 0
        self.max_sites = max_sites

    def record(self, time_ps: int, popped_fn, pending_fn) -> None:
        """One tied pop: ``popped_fn`` dispatched while ``pending_fn``
        waits at the same timestamp (dispatch order decided by insertion
        sequence alone)."""
        self.tied_pops += 1
        key = (callback_site(popped_fn), callback_site(pending_fn))
        entry = self.pairs.get(key)
        if entry is not None:
            entry[0] += 1
        elif len(self.pairs) < self.max_sites:
            self.pairs[key] = [1, time_ps]

    def report(self) -> dict:
        """The tie-report artifact body (DESIGN.md §9 schema): site pairs
        sorted by count (desc) then key — deterministic for a fixed run."""
        sites = [
            {
                "popped": k[0],
                "pending": k[1],
                "count": v[0],
                "first_time_ps": v[1],
            }
            for k, v in self.pairs.items()
        ]
        sites.sort(key=lambda s: (-s["count"], s["popped"], s["pending"]))
        return {
            "schema": TIE_REPORT_SCHEMA,
            "total_pops": self.total_pops,
            "tied_pops": self.tied_pops,
            "site_pairs": len(sites),
            "sites": sites,
        }


def merge_tie_reports(reports: Iterable[Optional[dict]]) -> dict:
    """Merge per-simulator tie reports (e.g. one per sweep cell) into one
    artifact body, summing counts per site pair."""
    pairs: Dict[Tuple[str, str], list] = {}
    total = tied = 0
    for rep in reports:
        if not rep:
            continue
        total += rep.get("total_pops", 0)
        tied += rep.get("tied_pops", 0)
        for s in rep.get("sites", ()):
            key = (s["popped"], s["pending"])
            entry = pairs.get(key)
            if entry is None:
                pairs[key] = [s["count"], s["first_time_ps"]]
            else:
                entry[0] += s["count"]
                entry[1] = min(entry[1], s["first_time_ps"])
    sites = [
        {"popped": k[0], "pending": k[1], "count": v[0], "first_time_ps": v[1]}
        for k, v in pairs.items()
    ]
    sites.sort(key=lambda s: (-s["count"], s["popped"], s["pending"]))
    return {
        "schema": TIE_REPORT_SCHEMA,
        "total_pops": total,
        "tied_pops": tied,
        "site_pairs": len(sites),
        "sites": sites,
    }


def write_tie_report(path, report: dict) -> None:
    """Write a tie-report artifact as stable, diff-friendly JSON."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
