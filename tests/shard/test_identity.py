"""Byte-identity: sharded runs reproduce the serial engine exactly.

The acceptance bar for the whole shard subsystem (DESIGN.md §11): FCT
fingerprints, every PortStats counter and the PFC ledger must match the
serial engine byte for byte, in-process AND process-backed, fused AND on
the classic-only reference path, including runs where PFC PAUSE/RESUME
frames cross the cut.

``train_frames`` is masked on the two cut ports only: a boundary hop
cannot fuse (the stub peer fails the train classifier's switch check, by
design), while every interior port must still fuse identically.
``events_dispatched`` is never compared — injection bounce events and
the unowned copies' monitor ticks make per-shard totals legitimately
differ while all physical counters stay identical.
"""

import json
import os

import pytest

from helpers import classic_hops_only
from repro.experiments.common import portstats_fingerprint, run_microbench
from repro.experiments.fct_experiment import run_fct_experiment
from repro.faults.audit import FaultAuditor
from repro.shard import ShardCrash, run_sharded_fct, run_sharded_microbench
from repro.units import KB


def serial_rows(result):
    return list(portstats_fingerprint(result.topo))


def cut_ports(topo, plan):
    out = set()
    for cut in plan.cuts:
        ports = topo.graph.edges[cut.a, cut.b]["ports"]
        out.add((cut.a, ports[cut.a]))
        out.add((cut.b, ports[cut.b]))
    return out


def masked(rows, cuts):
    return [r[:-1] + ((0,) if (r[0], r[1]) in cuts else (r[-1],)) for r in rows]


def serial_series(result):
    return result.series_fingerprint()


def assert_microbench_identical(cc, process=False, **kw):
    serial = run_microbench(cc, **kw)
    sharded = run_sharded_microbench(cc, n_shards=2, process=process, **kw)
    cuts = cut_ports(serial.topo, sharded.plan)
    assert masked(serial_rows(serial), cuts) == masked(sharded.portstats, cuts)
    assert serial_series(serial) == sharded.series_fingerprint()
    assert FaultAuditor.audit_merged(sharded.payloads, quiescent=False) == []
    return serial, sharded


def test_dumbbell_identity_trains_on():
    serial, sharded = assert_microbench_identical("fncc", duration_us=700.0)
    # Engagement guard: interior hops really fused on both sides.
    interior = [r[-1] for r in sharded.portstats]
    assert sum(interior) > 0


def test_dumbbell_identity_trains_off():
    # In-process shards only: the reference patch lives in this process.
    with classic_hops_only():
        _, sharded = assert_microbench_identical("fncc", duration_us=400.0)
    assert sum(r[-1] for r in sharded.portstats) == 0


def test_dumbbell_identity_spray_lb():
    """Everything ``run_microbench`` accepts reaches the shard builder: the
    two share one fabric builder, so ``lb=`` (once dropped by a hand-copied
    builder signature) cannot diverge."""
    assert_microbench_identical("fncc", duration_us=700.0, lb="spray")
    assert_microbench_identical("fncc", process=True, duration_us=700.0, lb="spray")


def test_dumbbell_identity_hpcc_int_across_cut():
    """HPCC's per-hop INT stamps must survive the frame-message hop."""
    assert_microbench_identical("hpcc", duration_us=700.0)


def test_pfc_storm_across_boundary():
    """A tight XOFF forces PAUSE/RESUME frames across the cut; the wire
    schedule and the merged ledger must still match serial exactly."""
    serial, sharded = assert_microbench_identical(
        "fncc", duration_us=700.0, pfc_xoff=50 * KB
    )
    assert serial.pause_frames > 0
    assert sharded.pfc["pause_sent"] == sharded.pfc["pause_received"] > 0
    assert sharded.pfc["resume_sent"] == sharded.pfc["resume_received"]


def test_dumbbell_identity_process_backed():
    """The worker-process runtime is observably identical to in-process."""
    assert_microbench_identical("fncc", process=True, duration_us=400.0)


@pytest.mark.parametrize("process", [False, True], ids=["inproc", "process"])
def test_fattree_fct_identity(process):
    kw = dict(workload="websearch", k=4, load=0.5, n_flows=40, scale=0.1, seed=1)
    serial = run_fct_experiment("fncc", **kw)
    sharded = run_sharded_fct("fncc", shards=2, process=process, **kw)
    assert serial.fct_fingerprint() == sharded.fct_fingerprint()
    assert sharded.completed == serial.collector.completed()
    cuts = cut_ports(serial.topo, sharded.plan)
    assert masked(serial_rows(serial), cuts) == masked(sharded.portstats, cuts)
    # The run drained: the merged snapshot must pass the quiescence audit.
    assert FaultAuditor.audit_merged(sharded.payloads, quiescent=True) == []
    # The rebuilt table holds the identical slowdown multiset per bin;
    # stats are compared against a serial table rebuilt in the same
    # flow-id order (the run's own table accumulated in completion order,
    # so its float reductions differ in the last ulp).
    table = sharded.slowdown_table()
    from repro.metrics.fct import SlowdownTable

    expected = SlowdownTable(serial.table.bins)
    for rec in sorted(serial.collector.records, key=lambda r: r.flow.flow_id):
        expected.add(rec.flow.size_bytes, rec.slowdown)
    for b in sharded.bins:
        assert sorted(table.by_bin[b]) == sorted(serial.table.by_bin[b])
        assert table.stat(b, "average") == expected.stat(b, "average")


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
        run_sharded_microbench(
            "fncc", n_shards=2, duration_us=400.0,
            crash_at_us=150.0, crash_shard=1,
        )
    crash = exc_info.value
    assert crash.shard_id == 1
    assert "ShardBomb" in crash.reason
    assert set(crash.dumps) == {0, 1}
    for sid, path in crash.dumps.items():
        with open(path) as fh:
            doc = json.load(fh)
        assert doc, f"empty flight dump for shard {sid}"


def test_killed_shard_process_dumps_survive_dead_worker(tmp_path):
    """A dead worker process must leave its own dump on disk and the
    survivors must still produce theirs."""
    with pytest.raises(ShardCrash) as exc_info:
        run_sharded_microbench(
            "fncc", n_shards=2, process=True, duration_us=400.0,
            dump_dir=str(tmp_path), crash_at_us=150.0, crash_shard=0,
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
    run_sharded_microbench(
        "fncc", n_shards=2, duration_us=400.0,
        trace_path=trace_path, pfc_xoff=50 * KB,
    )
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
