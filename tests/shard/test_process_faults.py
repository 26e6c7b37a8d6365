"""Process-backed shards under failure: whatever goes wrong — a worker
that cannot be started, a plan that cannot be made, a build that raises,
a worker killed outright — the caller gets one exception and no worker
process is left behind."""

import json
import os
import signal
import time
from multiprocessing.context import SpawnProcess

import pytest

from repro.experiments.common import run_microbench
from repro.shard import PartitionError, ShardCrash, run_sharded_fct
from repro.shard.builders import build_microbench_shard
from repro.shard.partition import dumbbell_plan
from repro.shard.runtime import ProcessShards, run_sharded
from repro.units import us

JOIN_TIMEOUT_S = 10.0  # ProcessShards.stop's per-worker join timeout

MICROBENCH = {
    "fn": "repro.shard.builders:build_microbench_shard",
    "kwargs": {"cc": "fncc"},
}


@pytest.fixture(scope="module")
def plan():
    return dumbbell_plan(run_microbench("fncc", duration_us=0.0).topo, 2)


@pytest.fixture
def started(monkeypatch):
    """Every spawn process started during the test, in start order."""
    procs = []
    real_start = SpawnProcess.start

    def start(self):
        real_start(self)
        procs.append(self)

    monkeypatch.setattr(SpawnProcess, "start", start)
    return procs


def assert_reaped(procs):
    assert procs, "no worker was started"
    for proc in procs:
        assert not proc.is_alive()
        assert proc.exitcode is not None
        with pytest.raises(ProcessLookupError):
            os.kill(proc.pid, 0)


def test_failed_second_start_stops_the_first_worker(plan, started, monkeypatch):
    recording_start = SpawnProcess.start

    def start(self):
        if started:
            raise OSError("no more processes")
        recording_start(self)

    monkeypatch.setattr(SpawnProcess, "start", start)
    with pytest.raises(OSError, match="no more processes"):
        ProcessShards(MICROBENCH, plan)
    assert len(started) == 1
    assert_reaped(started)
    assert started[0].exitcode == 0  # told to stop, not terminated


def test_failed_plan_stops_the_started_workers(started):
    # k=4 has four pods; three shards cannot split them.
    with pytest.raises(PartitionError, match="divide the pod count"):
        run_sharded_fct("fncc", shards=3, process=True, k=4, n_flows=4, scale=0.05)
    assert len(started) == 3
    assert_reaped(started)


def build_failing_on_shard_1(shard_id, owner, n_shards, **kwargs):
    if shard_id == 1:
        raise RuntimeError("cannot build shard 1")
    return build_microbench_shard(shard_id, owner, n_shards, **kwargs)


def test_worker_that_dies_building_is_named_and_all_are_reaped(plan, started, tmp_path):
    build = {"fn": f"{__name__}:build_failing_on_shard_1", "kwargs": {"cc": "fncc"}}
    group = ProcessShards(build, plan, dump_dir=str(tmp_path))
    try:
        with pytest.raises(ShardCrash) as exc_info:
            run_sharded(group, plan, until=us(50.0))
    finally:
        group.stop()
    crash = exc_info.value
    assert crash.shard_id == 1
    assert "cannot build shard 1" in crash.reason
    # The survivor's dump is the path it wrote, not a stale barrier reply.
    assert crash.dumps == {0: str(tmp_path / "shard0-flight.json")}
    with open(crash.dumps[0]) as fh:
        assert json.load(fh)
    assert_reaped(started)


class KillAfter:
    """Shard group proxy: SIGKILLs one worker once ``barriers`` barriers
    have completed, and waits until it is gone."""

    def __init__(self, group, victim, barriers) -> None:
        self.group = group
        self.victim = victim
        self.left = barriers
        self.killed_at = None

    def advance_all(self, horizon, inbound):
        if self.left == 0:
            os.kill(self.victim.pid, signal.SIGKILL)
            self.victim.join(timeout=JOIN_TIMEOUT_S)
            self.killed_at = time.perf_counter()
        self.left -= 1
        return self.group.advance_all(horizon, inbound)


def test_sigkilled_worker_midrun_is_named_survivor_dumps_none_orphaned(
    plan, started, tmp_path
):
    group = ProcessShards(MICROBENCH, plan, dump_dir=str(tmp_path))
    try:
        killer = KillAfter(group, started[1], barriers=20)
        with pytest.raises(ShardCrash) as exc_info:
            run_sharded(killer, plan, until=us(400.0))
        reaped_in = time.perf_counter() - killer.killed_at
    finally:
        group.stop()
    crash = exc_info.value
    assert crash.shard_id == 1
    assert "shard 1 crashed: worker process died" in str(crash)
    assert crash.dumps == {0: str(tmp_path / "shard0-flight.json")}
    with open(crash.dumps[0]) as fh:
        assert json.load(fh)
    assert_reaped(started)
    assert started[1].exitcode == -signal.SIGKILL
    assert started[0].exitcode == 0
    assert reaped_in < JOIN_TIMEOUT_S


def test_shard_crash_without_a_reason():
    crash = ShardCrash(2, "", {})
    assert crash.shard_id == 2
    assert str(crash) == "shard 2 crashed: no reason given"
