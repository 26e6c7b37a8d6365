#!/usr/bin/env python
"""Hot-path perf bench CLI.

Runs the fixed scenarios from :mod:`benchmarks.perf_harness`, appends one
entry to the ``BENCH_hotpath.json`` trajectory, and prints the speedup of
this run against the recorded baseline (the first entry, or the entry
tagged ``"label": "baseline"``).

Usage::

    python tools/bench.py                 # full scenario set, 3 repeats
    python tools/bench.py --quick         # CI smoke: fig9 + pause_storm
    python tools/bench.py --scenario fig14_websearch --repeats 5
    python tools/bench.py --label my-change
    python tools/bench.py --check         # gate: newest vs previous entry

``--check`` measures nothing: it reads the trajectory and exits non-zero
when the newest entry regresses more than ``--threshold`` (default 15%)
in wall time against the most recent previous entry **with the same
``jobs`` value** (a 1-job baseline vs an 8-job entry is parallelism, not
a regression signal) on any scenario both entries measured.  An empty or
single-entry trajectory — or no prior entry with matching jobs — is a
clean no-op (exit 0 with a message — there is nothing to compare yet);
two comparable entries with no scenario in common are an error (exit 2 —
the gate would otherwise pass vacuously).  CI runs it after the
``--quick`` smoke append.

``--jobs N`` fans the sweep-capable scenarios (currently ``sweep``) over
N worker processes via :class:`repro.exec.SweepExecutor`; every entry
records ``jobs`` and ``cpu_count`` so speedup claims carry their
provenance.

``--backend {packet,flow,hybrid}`` selects the simulation backend for the
backend-capable scenarios (``paper_scale``, ``million_flows``,
``million_flows_quick``); entries record a ``backend`` provenance field
and ``--check``/speedup baselines only compare matching backends (like
``jobs``).  The ≥10x hybrid-vs-packet claim is read off two
explicitly labelled back-to-back entries::

    python tools/bench.py --scenario paper_scale --backend packet --repeats 1
    python tools/bench.py --scenario paper_scale --backend hybrid --repeats 1

``--shards N`` runs the shard-capable scenarios (``shard_scale``) on the
topology-partitioned conservative-sync engine (DESIGN.md §11) with N
shards; ``--shards 1`` (the default) is the serial engine.  Results are
byte-identical either way (pinned by tests/shard/test_identity.py), so
the wall ratio between a ``--shards 1`` and a ``--shards N`` entry is
pure engine overhead/parallelism.  Entries record ``shards`` next to
``cpu_count`` and ``--check``/speedup baselines only compare matching
shard counts: on a 1-core recorder an N-shard entry measures protocol
overhead, not speedup, and the provenance pair keeps that honest.
``--ab-shards`` runs the cell serial AND N-shard (default 2) in paired
rounds, asserts byte-identity of the FCT + PortStats fingerprints, and
fails (exit 1) when the in-process sharded wall exceeds 2x(1+threshold)
serial on the quietest round — within-2x total compute is the condition
for the ≥2x projected speedup at 4 shards on a 4-core machine.

``--sanitize tie,pool`` runs every scenario under the named runtime
sanitizers (``REPRO_SANITIZE``; DESIGN.md §9 — debug-only, observation-
only).  Entries record a ``sanitize`` provenance field (``"off"`` when
none) and ``--check``/speedup baselines only compare matching sanitize
modes, exactly like ``jobs``/``backend`` — a sanitized wall
time is never a regression signal against an unsanitized one.
``--ab-sanitize`` measures the selected scenarios with sanitizers off AND
``tie,pool`` in one process and fails (exit 1) when the sanitized run is
slower beyond ``--threshold`` (CI gates at the default 15%) — the ceiling
that keeps the sanitizers cheap enough to actually get used.

Entry schema (one JSON object per run)::

    timestamp, git_rev, python, label    provenance
    repeats, jobs, cpu_count             measurement parameters
    sanitize                             runtime sanitizers ("off" or modes)
    shards                               engine partition count (1 = serial)
    scenarios: {name: {
        wall_s,            # MEDIAN wall seconds over repeats
        wall_min_s,        # MIN over repeats — the metric --check gates
                           # on (noise spikes slow a repeat, never speed
                           # one up, so the min is the robust floor)
        events, events_per_sec,
        frame_hops, frame_hops_per_sec,  # simulated-work throughput
    }}
    speedup_vs_baseline: {name: ratio}   # informational, median-based

(Entries recorded before the frame-train toggle was removed also carry
``"trains": "on"``; nothing reads it — the fused pass they ran with is the
only mode left.)

Works both installed (``pip install -e .``) and from a bare checkout (it
adds ``src/`` and the repo root to ``sys.path`` itself).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for p in (REPO_ROOT / "src", REPO_ROOT):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from benchmarks.perf_harness import (  # noqa: E402
    BACKEND_SCENARIOS,
    DEFAULT_SCENARIOS,
    JOBS_SCENARIOS,
    OBS_AB_SCENARIOS,
    OBS_SCENARIOS,
    QUICK_SCENARIOS,
    SCENARIOS,
    SHARDS_SCENARIOS,
    measure_all,
    speedup,
)

DEFAULT_OUT = REPO_ROOT / "BENCH_hotpath.json"


def git_rev() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                cwd=REPO_ROOT,
                check=True,
            ).stdout.strip()
        )
    except Exception:  # pragma: no cover - bare tarball checkouts
        return "unknown"


def load_trajectory(path: Path) -> list:
    if path.exists():
        return json.loads(path.read_text())
    return []


def find_baseline(
    trajectory: list,
    jobs: int = 1,
    backend: str = "default",
    sanitize: str = "off",
    shards: int = 1,
) -> dict:
    """The speedup reference: the entry tagged ``"label": "baseline"``, else
    the oldest entry — considering only entries measured with the same
    ``jobs`` value, ``backend``, ``sanitize`` modes and ``shards`` count.
    Comparing wall times across worker counts would report parallelism as
    hot-path speedup, across backends would report the fluid tier as a
    packet-engine win, across sanitize modes would report debug
    instrumentation as a regression, and across shard counts would report
    the partitioned engine's sync overhead (or its parallelism, on a
    multi-core recorder) as a hot-path delta (the same rules ``--check``
    enforces)."""
    candidates = [
        e
        for e in trajectory
        if entry_jobs(e) == jobs
        and entry_backend(e) == backend
        and entry_sanitize(e) == sanitize
        and entry_shards(e) == shards
    ]
    for entry in candidates:
        if entry.get("label") == "baseline":
            return entry
    return candidates[0] if candidates else {}


def entry_jobs(entry: dict) -> int:
    """The worker count an entry was measured with (pre-provenance entries
    recorded no ``jobs`` key and were all serial)."""
    return int(entry.get("jobs", 1))


def entry_backend(entry: dict) -> str:
    """The simulation backend an entry was measured with.  ``"default"``
    means no ``--backend`` override: every scenario ran its own default
    (packet for the classic set and ``paper_scale``, hybrid for the
    ``million_flows`` pair).  A hybrid ``paper_scale`` entry must never be
    gated against — or used as the speedup baseline for — a packet one;
    the ≥10x co-simulation ratio is read off *explicitly labelled*
    back-to-back entries instead."""
    return str(entry.get("backend", "default"))


def entry_sanitize(entry: dict) -> str:
    """The runtime-sanitizer modes an entry was measured under, normalized
    to ``"off"`` or a sorted comma-join (``"pool,tie"``).  Entries predating
    the sanitizers ran without them."""
    return norm_sanitize(entry.get("sanitize", "off"))


def entry_shards(entry: dict) -> int:
    """The shard count an entry was measured with (``1`` = the serial
    engine; entries predating the partitioned engine were all serial).
    Read alongside ``cpu_count``: a ``shards=4`` entry recorded on a
    1-core machine measures protocol overhead, not speedup."""
    return int(entry.get("shards", 1))


def norm_sanitize(spec: str) -> str:
    """Canonical form of a sanitize spec: ``"off"`` for none, else the
    sorted comma-join — so ``"tie,pool"`` and ``"pool, tie"`` compare equal
    in provenance partitioning."""
    from repro.sim.sanitize import parse_sanitize

    modes = parse_sanitize(spec if spec != "off" else "")
    return ",".join(sorted(modes)) if modes else "off"


def check_regression(trajectory: list, threshold: float = 0.15) -> int:
    """Compare the newest trajectory entry against its baseline.

    The baseline is the most recent *previous* entry with the same
    ``jobs`` value — wall times measured at different worker counts are
    parallelism comparisons, not regression signals, so mixed-jobs pairs
    are never gated against each other.

    Returns an exit code: 0 when nothing regressed (or there is nothing to
    compare yet), 1 when at least one shared scenario regressed beyond
    ``threshold``, 2 when the two compared entries share no scenarios (the
    gate cannot decide anything — that must not pass silently).

    Only scenarios present in both entries are compared (a ``--quick``
    entry measures the smoke subset against the full set of its
    predecessor).
    """
    if not trajectory:
        print(
            "check: trajectory is empty — run tools/bench.py (or --quick) "
            "to record a first entry"
        )
        return 0
    if len(trajectory) == 1:
        print(
            "check: only one trajectory entry "
            f"({trajectory[0].get('label') or trajectory[0].get('git_rev')}) "
            "— nothing to compare against yet"
        )
        return 0
    newest = trajectory[-1]
    jobs = entry_jobs(newest)
    backend = entry_backend(newest)
    sanitize = entry_sanitize(newest)
    shards = entry_shards(newest)
    prev = None
    prev_pos = -1
    for pos in range(len(trajectory) - 2, -1, -1):
        cand = trajectory[pos]
        if (
            entry_jobs(cand) == jobs
            and entry_backend(cand) == backend
            and entry_sanitize(cand) == sanitize
            and entry_shards(cand) == shards
        ):
            prev = cand
            prev_pos = pos
            break
    if prev is None:
        print(
            f"check: no previous entry measured with jobs={jobs} "
            f"backend={backend} sanitize={sanitize} "
            f"shards={shards} "
            f"(newest: {newest.get('label') or newest.get('git_rev')}) — "
            "nothing comparable to gate against yet"
        )
        return 0
    prev_sc = prev.get("scenarios") or {}
    new_sc = newest.get("scenarios") or {}
    shared = sorted(set(prev_sc) & set(new_sc))
    if not shared:
        print(
            "check: the compared entries share no scenarios "
            f"({sorted(new_sc) or 'none'} vs {sorted(prev_sc) or 'none'}) — "
            "the gate cannot compare them; measure overlapping scenario sets"
        )
        return 2
    failures = 0
    print(
        f"check: entry #{len(trajectory)} ({newest.get('label') or newest.get('git_rev')}) "
        f"vs #{prev_pos + 1} ({prev.get('label') or prev.get('git_rev')}), "
        f"jobs={jobs}, backend={backend}, "
        f"sanitize={sanitize}, shards={shards}, "
        f"threshold +{threshold:.0%} on wall_min_s"
    )
    for name in shared:
        # Gate on the min over repeats, not the median: robust to noisy-
        # neighbor spikes on shared runners (a spike can slow one repeat,
        # never speed one up), so CI flakes don't masquerade as perf
        # regressions.  Entries keep both (see the schema comment above).
        old_wall = prev_sc[name].get("wall_min_s") or prev_sc[name].get("wall_s")
        new_wall = new_sc[name].get("wall_min_s") or new_sc[name].get("wall_s")
        if not old_wall or not new_wall:
            continue
        ratio = new_wall / old_wall
        verdict = "FAIL" if ratio > 1 + threshold else "ok"
        if verdict == "FAIL":
            failures += 1
        print(
            f"  {name:>18}: {old_wall:.3f}s -> {new_wall:.3f}s "
            f"({ratio - 1:+.1%}) {verdict}"
        )
    if failures:
        print(f"check: {failures} scenario(s) regressed beyond threshold")
        return 1
    return 0


def main(argv=None) -> int:
    # REPRO_SANITIZE is mutated during measurement (it is how spawned
    # sweep workers inherit the sanitize mode) but must not leak past the
    # call: a later in-process consumer — e.g. the rest of a pytest
    # session — would silently construct sanitized Simulators.
    prev = os.environ.get("REPRO_SANITIZE")
    try:
        return _main(argv)
    finally:
        if prev is None:
            os.environ.pop("REPRO_SANITIZE", None)
        else:
            os.environ["REPRO_SANITIZE"] = prev


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fig9 microbench + pause_storm, 3 repeats",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="run only this scenario (repeatable)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--label", default="", help="tag for this entry")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--no-write", action="store_true", help="measure and print only"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="no measurement: fail if the newest trajectory entry regresses "
        "vs the previous entry on any shared scenario",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="--check regression tolerance (fraction of wall time)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep-capable scenarios (the 'sweep' "
        "scenario); recorded in the trajectory entry so --check only "
        "compares entries with matching jobs",
    )
    parser.add_argument(
        "--backend",
        choices=("packet", "flow", "hybrid"),
        default="",
        help="simulation backend for the backend-capable scenarios "
        f"({sorted(BACKEND_SCENARIOS)}); unset keeps each scenario's "
        "default (packet for paper_scale — the ground-truth baseline — "
        "hybrid for the million_flows pair); recorded in the entry so "
        "--check only compares matching backends",
    )
    parser.add_argument(
        "--sanitize",
        default=os.environ.get("REPRO_SANITIZE", "off") or "off",
        help="runtime sanitizers for every measured scenario "
        "('off', 'tie', 'pool', or 'tie,pool'; default from REPRO_SANITIZE); "
        "recorded in the entry so --check only compares matching modes",
    )
    parser.add_argument(
        "--ab-sanitize",
        action="store_true",
        help="measure the selected scenarios with sanitizers off AND "
        "tie,pool in one process, print the A/B, and exit 1 if the "
        "sanitized run is slower beyond --threshold (CI gates the debug-"
        "only overhead at the default 15%%; never writes the trajectory)",
    )
    parser.add_argument(
        "--ab-obs",
        action="store_true",
        help="measure the obs-capable scenarios with the telemetry bundle "
        f"(registry + tracer) off AND on ({sorted(OBS_SCENARIOS)}; default "
        f"set {list(OBS_AB_SCENARIOS)}), print the A/B, and exit 1 if "
        "obs-on is slower beyond --threshold on any scenario (target is "
        "<=2%; the gate reuses the wall threshold for CI-noise headroom; "
        "never writes the trajectory)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="topology shards for the shard-capable scenarios "
        f"({sorted(SHARDS_SCENARIOS)}); 1 = the serial engine, N>1 = the "
        "partitioned conservative-sync engine (byte-identical results — "
        "DESIGN.md §11); recorded with cpu_count in the entry so --check "
        "only compares matching shard counts and speedup claims carry "
        "their core-count provenance",
    )
    parser.add_argument(
        "--ab-shards",
        action="store_true",
        help="run the shard_scale cell serial AND partitioned (--shards N, "
        "default 2) in paired rounds; exit 1 if the FCT or merged "
        "PortStats fingerprints differ (byte-identity is the sharded "
        "engine's correctness bar — DESIGN.md §11) or the in-process "
        "sharded run's protocol overhead exceeds --threshold over the "
        "per-shard compute on the quietest round (never writes the "
        "trajectory)",
    )
    parser.add_argument(
        "--ab-faults",
        action="store_true",
        help="measure the §5.5 FCT cell with the fault layer off "
        "(faults=None) AND armed with the no-op FaultPlan, in paired "
        "rounds; exit 1 if the FCT or PortStats fingerprints differ (the "
        "no-op plan must be byte-identical — DESIGN.md §10 zero-"
        "perturbation obligation) or the armed run is slower beyond "
        "--threshold on the quietest round (target is <=2%%; the gate "
        "reuses the wall threshold for CI-noise headroom; never writes "
        "the trajectory)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="attach a live progress reporter (wall-clock heartbeats with "
        "events/s and ETA on stderr) to the obs-capable scenarios "
        f"({sorted(OBS_SCENARIOS)}); the entry records obs=true provenance",
    )
    args = parser.parse_args(argv)

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.shards < 1:
        parser.error("--shards must be >= 1 (1 = serial engine)")

    def _set_sanitize(spec: str) -> None:
        # Env var only: the engine reads REPRO_SANITIZE at *construction*
        # time (not import), and spawn-started sweep workers inherit the
        # environment.
        if spec == "off":
            os.environ.pop("REPRO_SANITIZE", None)
        else:
            os.environ["REPRO_SANITIZE"] = spec

    try:
        sanitize = norm_sanitize(args.sanitize)
    except ValueError as exc:
        parser.error(str(exc))
    _set_sanitize(sanitize)

    if args.check:
        return check_regression(load_trajectory(args.out), args.threshold)

    if args.ab_sanitize:
        names = list(QUICK_SCENARIOS) if args.quick else (
            args.scenario or list(SCENARIOS)
        )
        # More rounds than the other A/B gates: each round is ~1 s on the
        # quick set, and the min-vs-min comparison needs enough samples
        # that both modes land in a quiet window on a noisy runner.
        repeats = 7 if args.quick else args.repeats
        print(
            f"A/B sanitize off vs tie,pool: {names} (repeats={repeats}, "
            "interleaved) ...",
            flush=True,
        )
        # Machine-level drift on shared/CI runners (clock scaling, noisy
        # neighbours) swings wall times by >10% between windows — more
        # than the overhead being gated.  Two defences: (a) a discarded
        # warmup pass so neither mode pays cold-start costs, (b) paired
        # per-round ratios — off and on measured back to back so drift
        # hits both sides of each ratio — gated on the *minimum* round
        # ratio: a lower bound on the true overhead.  The semantics are
        # deliberately one-sided for a noisy runner: the gate fails only
        # when every round, including the quietest, shows >threshold
        # overhead — i.e. the overhead is provably too high.  A real
        # regression of the class this guards against (poisoning or tie
        # tracking accidentally going unconditional, ~2x a cycle) clears
        # the bar in every round; ambient ±10% container noise cannot
        # produce a false FAIL the way a median or mean estimator does.
        walls = {"off": {}, "pool,tie": {}}
        ratios = {}
        for rnd in range(repeats + 1):
            round_walls = {}
            for mode in ("off", "pool,tie"):
                _set_sanitize(mode)
                for name, m in measure_all(names, repeats=1, jobs=args.jobs).items():
                    w = m.get("wall_min_s") or m["wall_s"]
                    round_walls.setdefault(name, {})[mode] = w
            if rnd == 0:
                continue  # warmup pass: both modes run, nothing recorded
            for name, pair in round_walls.items():
                ratios.setdefault(name, []).append(pair["pool,tie"] / pair["off"])
                for mode, w in pair.items():
                    cur_w = walls[mode].get(name)
                    walls[mode][name] = w if cur_w is None else min(cur_w, w)
        _set_sanitize(sanitize)
        failures = 0
        print(f"{'scenario':>18} {'off(s)':>9} {'on(s)':>9} {'on/off':>8}")
        for name in names:
            off = walls["off"][name]
            on = walls["pool,tie"][name]
            ratio = min(ratios[name])
            verdict = "FAIL" if ratio > 1 + args.threshold else "ok"
            if verdict == "FAIL":
                failures += 1
            print(f"{name:>18} {off:9.3f} {on:9.3f} {ratio:8.2f} {verdict}")
        if failures:
            print(
                f"ab-sanitize: sanitizer overhead exceeded the gate on "
                f"{failures} scenario(s)"
            )
            return 1
        return 0

    if args.ab_obs:
        names = args.scenario or list(OBS_AB_SCENARIOS)
        bad = sorted(set(names) - OBS_SCENARIOS)
        if bad:
            parser.error(
                f"--ab-obs: {bad} take no obs bundle (capable: "
                f"{sorted(OBS_SCENARIOS)})"
            )
        repeats = 3 if args.quick else args.repeats
        print(f"A/B obs off vs on: {names} (repeats={repeats}) ...", flush=True)
        walls = {}
        for mode, with_obs in (("off", False), ("on", True)):
            walls[mode] = measure_all(
                names, repeats=repeats, jobs=args.jobs, backend=args.backend,
                obs=with_obs,
            )
        failures = 0
        print(f"{'scenario':>18} {'off(s)':>9} {'on(s)':>9} {'on/off':>8}")
        for name in names:
            off = walls["off"][name].get("wall_min_s") or walls["off"][name]["wall_s"]
            on = walls["on"][name].get("wall_min_s") or walls["on"][name]["wall_s"]
            ratio = on / off
            verdict = "FAIL" if ratio > 1 + args.threshold else "ok"
            if verdict == "FAIL":
                failures += 1
            print(f"{name:>18} {off:9.3f} {on:9.3f} {ratio:8.2f} {verdict}")
        if failures:
            print(f"ab-obs: telemetry overhead exceeded the gate on {failures} scenario(s)")
            return 1
        return 0

    if args.ab_shards:
        from benchmarks.perf_harness import SHARD_SCALE_KW
        from repro.experiments.fct_experiment import run_fct_experiment
        from repro.shard import run_sharded_fct
        from repro.shard.builders import portstats_rows

        n = max(2, args.shards)
        rounds = 3 if args.quick else max(3, args.repeats)
        print(
            f"A/B serial vs {n}-shard partitioned: shard_scale cell "
            f"(rounds={rounds}, paired) ...",
            flush=True,
        )

        def _rows13(rows) -> tuple:
            # All PortStats counters except the last column: train_frames
            # legitimately differs on the cut ports (a boundary hop cannot
            # fuse, by design — tests/shard/test_identity.py pins the
            # per-cut-port masking; the gate uses the simpler global drop).
            return tuple(tuple(r)[:-1] for r in rows)

        # Paired rounds (cf. --ab-faults): serial and sharded run back to
        # back so machine drift hits both sides of each ratio; the wall
        # gate reads the *minimum* round ratio.  Identity is absolute:
        # every round of every mode must reproduce the same fingerprints,
        # and sharded must equal serial byte for byte.  The wall bound is
        # 2x(1+threshold): in-process the N shards' event loops serialize
        # on one core, so the sharded wall is (sum of per-shard compute +
        # per-horizon sync); keeping it within 2x serial is exactly the
        # <=100%-overhead condition the >=2x-at-4-shards projection needs
        # (on >=N cores, wall ~ sharded/N for balanced partitions, so
        # projected speedup ~ N * serial/sharded).
        walls = {"serial": None, "sharded": None}
        fps = {}
        ratios = []
        for _ in range(rounds):
            round_walls = {}
            for mode in ("serial", "sharded"):
                t0 = time.perf_counter()
                if mode == "serial":
                    res = run_fct_experiment("fncc", **SHARD_SCALE_KW)
                    rows = sorted(
                        tuple(r)
                        for r in portstats_rows(
                            list(res.topo.hosts) + list(res.topo.switches)
                        )
                    )
                else:
                    res = run_sharded_fct("fncc", shards=n, **SHARD_SCALE_KW)
                    rows = res.portstats
                round_walls[mode] = time.perf_counter() - t0
                fp = (res.fct_fingerprint(), _rows13(rows))
                if mode not in fps:
                    fps[mode] = fp
                elif fps[mode] != fp:
                    print(f"ab-shards: mode {mode!r} is not run-to-run deterministic")
                    return 1
            ratios.append(round_walls["sharded"] / round_walls["serial"])
            for mode, w in round_walls.items():
                cur = walls[mode]
                walls[mode] = w if cur is None else min(cur, w)
        if fps["serial"] != fps["sharded"]:
            print(
                f"ab-shards: FAIL — the {n}-shard run diverged from the "
                "serial engine (FCT/PortStats fingerprints differ); the "
                "conservative-sync protocol is broken"
            )
            return 1
        ratio = min(ratios)
        bound = 2 * (1 + args.threshold)
        verdict = "FAIL" if ratio > bound else "ok"
        projected = n * walls["serial"] / walls["sharded"]
        print(
            f"  fingerprints: identical ({len(fps['serial'][0])} flows, "
            f"{len(fps['serial'][1])} port rows)"
        )
        print(
            f"  wall: serial {walls['serial']:.3f}s -> {n}-shard in-process "
            f"{walls['sharded']:.3f}s (min round ratio {ratio:.3f}, "
            f"bound {bound:.2f}) {verdict}"
        )
        print(
            f"  projection: ~{projected:.2f}x on >={n} cores "
            f"({n} x serial/sharded; this machine has {os.cpu_count()})"
        )
        if verdict == "FAIL":
            print(
                "ab-shards: partition/sync overhead exceeded the gate "
                "(sharded total compute must stay within 2x serial for the "
                ">=2x-at-4-shards projection to hold)"
            )
            return 1
        return 0

    if args.ab_faults:
        from repro.experiments.common import portstats_fingerprint
        from repro.experiments.fct_experiment import run_fct_experiment
        from repro.faults import FaultPlan

        repeats = 3 if args.quick else max(3, args.repeats)
        cell = dict(cc="fncc", n_flows=120, max_horizon_ms=20.0, seed=1)
        print(
            f"A/B faults off vs no-op plan: fct cell {cell} "
            f"(rounds={repeats}, paired) ...",
            flush=True,
        )
        # Paired rounds (cf. --ab-sanitize): off and armed run back to
        # back so machine drift hits both sides of each ratio; the wall
        # gate reads the *minimum* round ratio.  The byte-identity check
        # is absolute: every round of every mode must produce the same
        # FCT + PortStats fingerprints, and off must equal armed.
        walls = {"off": None, "noop": None}
        fps = {}
        ratios = []
        for _ in range(repeats):
            round_walls = {}
            for mode, faults in (("off", None), ("noop", FaultPlan.noop())):
                t0 = time.perf_counter()
                res = run_fct_experiment(faults=faults, **cell)
                round_walls[mode] = time.perf_counter() - t0
                fp = (res.fct_fingerprint(), portstats_fingerprint(res.topo))
                if mode not in fps:
                    fps[mode] = fp
                elif fps[mode] != fp:
                    print(f"ab-faults: mode {mode!r} is not run-to-run deterministic")
                    return 1
            ratios.append(round_walls["noop"] / round_walls["off"])
            for mode, w in round_walls.items():
                cur = walls[mode]
                walls[mode] = w if cur is None else min(cur, w)
        if fps["off"] != fps["noop"]:
            print(
                "ab-faults: FAIL — arming the no-op FaultPlan perturbed the "
                "run (FCT/PortStats fingerprints differ from faults=None)"
            )
            return 1
        ratio = min(ratios)
        verdict = "FAIL" if ratio > 1 + args.threshold else "ok"
        print(
            f"  fingerprints: identical ({len(fps['off'][0])} flows, "
            f"{len(fps['off'][1])} port rows)"
        )
        print(
            f"  wall: off {walls['off']:.3f}s -> armed {walls['noop']:.3f}s "
            f"(min round ratio {ratio:.3f}) {verdict}"
        )
        if verdict == "FAIL":
            print("ab-faults: no-op fault layer overhead exceeded the gate")
            return 1
        return 0

    if args.quick:
        names = list(QUICK_SCENARIOS)
        # 3 repeats keep --check's medians/minima meaningful on noisy CI
        # runners; fig9 + pause_storm are each well under a second on the
        # bounded-lookahead port, so this stays a smoke test.
        repeats = 3
    else:
        # The no-args default set excludes the minutes-scale scenarios
        # (paper_scale, million_flows) — name them via --scenario.
        names = args.scenario or list(DEFAULT_SCENARIOS)
        repeats = args.repeats

    # An entry is only a jobs=N measurement if a jobs-aware scenario was
    # actually measured; otherwise --jobs changed nothing and tagging the
    # entry with it would fragment --check's same-jobs comparison history.
    effective_jobs = args.jobs if any(n in JOBS_SCENARIOS for n in names) else 1
    if args.jobs != 1 and effective_jobs == 1:
        print(
            f"note: --jobs {args.jobs} has no effect on {names} (only "
            f"{sorted(JOBS_SCENARIOS)} honour it); recording entry as jobs=1"
        )

    # Same fragmentation rule for --backend: the flag only means something
    # when a backend-capable scenario was measured.
    effective_backend = (
        args.backend
        if args.backend and any(n in BACKEND_SCENARIOS for n in names)
        else "default"
    )
    if args.backend and effective_backend == "default":
        print(
            f"note: --backend {args.backend} has no effect on {names} (only "
            f"{sorted(BACKEND_SCENARIOS)} honour it); recording entry as "
            "backend=default"
        )

    # And for --shards: only a shard-capable scenario makes an entry a
    # shards=N measurement.
    effective_shards = (
        args.shards if any(n in SHARDS_SCENARIOS for n in names) else 1
    )
    if args.shards != 1 and effective_shards == 1:
        print(
            f"note: --shards {args.shards} has no effect on {names} (only "
            f"{sorted(SHARDS_SCENARIOS)} honour it); recording entry as "
            "shards=1"
        )

    print(
        f"measuring {names} (repeats={repeats}, jobs={effective_jobs}"
        + (f", backend={effective_backend}" if effective_backend != "default" else "")
        + (f", sanitize={sanitize}" if sanitize != "off" else "")
        + (f", shards={effective_shards}" if effective_shards != 1 else "")
        + ") ...",
        flush=True,
    )
    if args.progress and not any(n in OBS_SCENARIOS for n in names):
        print(
            f"note: --progress has no effect on {names} (only "
            f"{sorted(OBS_SCENARIOS)} honour it)"
        )
    metrics = measure_all(
        names, repeats=repeats, jobs=effective_jobs, backend=args.backend,
        shards=effective_shards, progress=args.progress,
    )

    trajectory = load_trajectory(args.out)
    baseline = find_baseline(
        trajectory,
        jobs=effective_jobs,
        backend=effective_backend,
        sanitize=sanitize,
        shards=effective_shards,
    )
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "label": args.label,
        "repeats": repeats,
        "jobs": effective_jobs,
        "cpu_count": os.cpu_count(),
        "backend": effective_backend,
        "sanitize": sanitize,
        "shards": effective_shards,
        "scenarios": metrics,
    }
    if args.progress and any(n in OBS_SCENARIOS for n in names):
        # Provenance: these walls include the telemetry bundle (target
        # overhead <=2%, gated separately by --ab-obs).
        entry["obs"] = True
    if baseline:
        entry["speedup_vs_baseline"] = speedup(
            metrics, baseline.get("scenarios", {})
        )

    header = f"{'scenario':>18} {'wall(s)':>9} {'events':>9} {'ev/s':>10} {'hops/s':>10} {'speedup':>8}"
    print(header)
    for name, m in metrics.items():
        sp = entry.get("speedup_vs_baseline", {}).get(name)
        print(
            f"{name:>18} {m['wall_s']:9.3f} {m['events']:9d} "
            f"{m['events_per_sec']:10d} {m.get('frame_hops_per_sec', 0):10d} "
            f"{(f'{sp:.2f}x' if sp else '—'):>8}"
        )

    if not args.no_write:
        trajectory.append(entry)
        args.out.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"appended entry #{len(trajectory)} to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
