"""Byte-identity: sharded runs reproduce the serial engine exactly.

The acceptance bar for the whole shard subsystem (DESIGN.md §11): FCT
fingerprints, every PortStats counter and the PFC ledger must match the
serial engine byte for byte, in-process AND process-backed, fused AND on
the classic-only reference path, including runs where PFC PAUSE/RESUME
frames cross the cut.

``train_frames`` is masked on the cut ports only: a boundary hop
cannot fuse (the stub peer fails the train classifier's switch check, by
design), while every interior port must still fuse identically.
``events_dispatched`` is never compared — injection bounce events make
per-shard totals legitimately differ while all physical counters stay
identical.
"""

import json
import os
from contextlib import nullcontext

import pytest

from helpers import classic_hops_only
from repro.experiments.common import portstats_fingerprint
from repro.experiments.fct_experiment import run_fct_experiment
from repro.faults.audit import FaultAuditor
from repro.metrics.fct import SlowdownTable
from repro.shard import ShardCrash, drivers, run_sharded_fct
from repro.shard.partition import plan_partition
from repro.units import KB

FCT_KW = dict(workload="websearch", k=4, load=0.5, n_flows=40, scale=0.1, seed=1)


def serial_rows(result):
    return list(portstats_fingerprint(result.topo))


def cut_ports(topo, plan):
    out = set()
    for cut in plan.cuts:
        ports = topo.adj[cut.a][cut.b]["ports"]
        out.add((cut.a, ports[cut.a]))
        out.add((cut.b, ports[cut.b]))
    return out


def masked(rows, cuts):
    return [r[:-1] + ((0,) if (r[0], r[1]) in cuts else (r[-1],)) for r in rows]


def assert_fct_identical(cc="fncc", process=False, **kw):
    serial = run_fct_experiment(cc, **FCT_KW, **kw)
    sharded = run_sharded_fct(cc, shards=2, process=process, **FCT_KW, **kw)
    assert serial.fct_fingerprint() == sharded.fct_fingerprint()
    assert sharded.completed == serial.collector.completed()
    cuts = cut_ports(serial.topo, sharded.plan)
    assert masked(serial_rows(serial), cuts) == masked(sharded.portstats, cuts)
    # The run drained: the merged snapshot must pass the quiescence audit.
    assert FaultAuditor.audit_merged(sharded.payloads, quiescent=True) == []
    return serial, sharded


@pytest.mark.parametrize(
    "cc, process, hops, kw",
    [
        ("fncc", False, "fused", {}),
        ("fncc", True, "fused", {}),
        ("fncc", False, "classic", {}),
        ("hpcc", False, "fused", {}),
        ("fncc", False, None, {"lb": "spray"}),
        ("fncc", True, None, {"lb": "spray"}),
    ],
    ids=["inproc", "process", "classic-hops", "hpcc-int", "spray", "spray-process"],
)
def test_fattree_fct_identity(cc, process, hops, kw):
    """In-process and process-backed, fused and on the classic-only
    reference path (in-process only: the reference patch lives in this
    process), HPCC's per-hop INT stamps across the frame-message hop, and
    everything ``run_fct_experiment`` accepts reaching the shard builder
    (``lb=``)."""
    with classic_hops_only() if hops == "classic" else nullcontext():
        serial, sharded = assert_fct_identical(cc, process, **kw)
    # Engagement guard: interior hops really fused on both sides, or
    # none did under the reference patch.
    fused = sum(r[-1] for r in sharded.portstats)
    if hops == "fused":
        assert fused > 0
    elif hops == "classic":
        assert fused == 0
    # The rebuilt table holds the identical slowdown multiset per bin;
    # stats are compared against a serial table rebuilt in the same
    # flow-id order (the run's own table accumulated in completion order,
    # so its float reductions differ in the last ulp).
    table = sharded.slowdown_table()
    expected = SlowdownTable(serial.table.bins)
    for rec in sorted(serial.collector.records, key=lambda r: r.flow.flow_id):
        expected.add(rec.flow.size_bytes, rec.slowdown)
    for b in sharded.bins:
        assert sorted(table.by_bin[b]) == sorted(serial.table.by_bin[b])
        assert table.stat(b, "average") == expected.stat(b, "average")


def test_dumbbell_identity_trains_on():
    """Fused identity with a per-shard engagement guard (named for the
    dumbbell cell it first ran on): every shard's interior ports fused,
    and no cut port did, since a boundary hop cannot fuse."""
    serial, sharded = assert_fct_identical()
    cuts = cut_ports(serial.topo, sharded.plan)
    for sid, payload in sharded.payloads.items():
        rows = payload["portstats"]
        assert sum(r[-1] for r in rows if (r[0], r[1]) not in cuts) > 0, sid
        assert sum(r[-1] for r in rows if (r[0], r[1]) in cuts) == 0, sid


def test_dumbbell_identity_process_backed():
    """The worker-process runtime is observably identical to in-process,
    shard by shard (named for the dumbbell cell it first ran on)."""
    inproc = run_sharded_fct("fncc", shards=2, **FCT_KW)
    process = run_sharded_fct("fncc", shards=2, process=True, **FCT_KW)
    assert process.plan.owner == inproc.plan.owner
    assert process.end_ps == inproc.end_ps
    for sid in inproc.payloads:
        for key in ("portstats", "records", "pfc", "boundary", "events_dispatched"):
            assert process.payloads[sid][key] == inproc.payloads[sid][key], (sid, key)


def test_pfc_storm_across_boundary():
    """A tight XOFF forces PAUSE/RESUME frames across the cut; the wire
    schedule and the merged ledger must still match serial exactly."""
    serial, sharded = assert_fct_identical(pfc_xoff=50 * KB)
    assert sharded.pfc["pause_sent"] == sharded.pfc["pause_received"] > 0
    assert sharded.pfc["resume_sent"] == sharded.pfc["resume_received"]
    cuts = cut_ports(serial.topo, sharded.plan)
    # Column 8 is pause_sent: some PAUSEs went out on a cut port.
    assert sum(r[8] for r in sharded.portstats if (r[0], r[1]) in cuts) > 0


def interleaved_plan(topo, n_shards):
    """An ownership map ``fattree_plan`` never produces: pods dealt
    round-robin ({0, 2} and {1, 3} at k=4, where it deals contiguous
    runs) and core group ``core_i_*`` on shard ``i`` (where every core
    rides shard 0)."""
    owner = {
        node.name: int(node.name.split("_")[1]) % n_shards
        for node in [*topo.switches, *topo.hosts]
    }
    return plan_partition(topo, owner, n_shards)


def test_fattree_fct_identity_under_an_interleaved_plan(monkeypatch):
    serial = run_fct_experiment("fncc", **FCT_KW)
    monkeypatch.setattr(drivers, "fattree_plan", interleaved_plan)
    sharded = run_sharded_fct("fncc", shards=2, **FCT_KW)
    owner = sharded.plan.owner
    assert [owner[f"tor_{p}_0"] for p in range(4)] == [0, 1, 0, 1]
    assert [owner[f"core_{i}_0"] for i in range(2)] == [0, 1]
    assert len(sharded.plan.cuts) == 8  # half of the 16 agg-core links
    assert serial.fct_fingerprint() == sharded.fct_fingerprint()
    assert sharded.completed == serial.collector.completed()
    # Rows minus train_frames: a cut hop cannot fuse.
    assert [r[:-1] for r in serial_rows(serial)] == [
        r[:-1] for r in sharded.portstats
    ]
    assert FaultAuditor.audit_merged(sharded.payloads, quiescent=True) == []


def test_audit_merged_flags_imbalance():
    payloads = {
        0: {
            "pfc": {"pause_sent": 3, "pause_received": 0,
                    "resume_sent": 0, "resume_received": 0},
            "boundary": {"exported": 5, "injected": 5, "in_flight": 0},
        },
    }
    violations = FaultAuditor.audit_merged(payloads, quiescent=True)
    assert any("ledger imbalance" in v for v in violations)
    # Non-quiescent: a gap larger than the boundary residue is still a bug.
    assert FaultAuditor.audit_merged(payloads, quiescent=False) != []
    payloads[0]["boundary"]["in_flight"] = 3
    assert FaultAuditor.audit_merged(payloads, quiescent=False) == []


def test_killed_shard_inprocess_dumps_all_survivors(tmp_path):
    with pytest.raises(ShardCrash) as exc_info:
        run_sharded_fct(
            "fncc", shards=2, dump_dir=str(tmp_path),
            crash_at_us=150.0, crash_shard=1, **FCT_KW,
        )
    crash = exc_info.value
    assert crash.shard_id == 1
    assert "ShardBomb" in crash.reason
    # Every shard dumped, into dump_dir, as the process backend names them.
    assert crash.dumps == {
        sid: str(tmp_path / f"shard{sid}-flight.json") for sid in (0, 1)
    }
    for sid, path in crash.dumps.items():
        with open(path) as fh:
            doc = json.load(fh)
        assert doc, f"empty flight dump for shard {sid}"


def test_killed_shard_process_dumps_survive_dead_worker(tmp_path):
    """A dead worker process must leave its own dump on disk and the
    survivors must still produce theirs."""
    with pytest.raises(ShardCrash) as exc_info:
        run_sharded_fct(
            "fncc", shards=2, process=True, dump_dir=str(tmp_path),
            crash_at_us=150.0, crash_shard=0, **FCT_KW,
        )
    crash = exc_info.value
    assert crash.shard_id == 0
    assert set(crash.dumps) == {0, 1}
    for sid in (0, 1):
        path = os.path.join(str(tmp_path), f"shard{sid}-flight.json")
        assert os.path.isfile(path)
        with open(path) as fh:
            json.load(fh)


def test_chrome_trace_one_pid_per_shard(tmp_path):
    trace_path = str(tmp_path / "shards.json")
    run_sharded_fct("fncc", shards=2, trace_path=trace_path, **FCT_KW)
    with open(trace_path) as fh:
        events = json.load(fh)["traceEvents"]
    pids = {ev["pid"] for ev in events}
    labels = {
        ev["args"]["name"]
        for ev in events
        if ev.get("ph") == "M" and ev.get("name") == "process_name"
    }
    assert len(pids) == 2
    assert labels == {"shard0", "shard1"}
