"""The headline guarantee of the sweep executor: serial (``jobs=1``) and
parallel (``jobs=N``) executions of the same specs produce byte-identical
results — FCT fingerprints for the CC × LB matrix, full sampled series
for multi-seed microbench runs — whether the workers were forked or
spawned, and a crashing spec surfaces its traceback instead of hanging
the pool.

The parallel runs take whatever start method the rule picks here (fork
on Linux); the spawn runs reach the other branch the way a program
would, by holding a second thread live (``helpers.live_thread``)."""

import pytest

from helpers import live_thread, microbench_fingerprint
from repro.exec import RunSpec, SweepError, SweepExecutor
from repro.experiments.lbmatrix import run_lbmatrix

#: One reduced lbmatrix slice: 2 LB strategies x 1 CC on the fat-tree
#: permutation scenario (the cells the acceptance tests pin).
SLICE = dict(
    lbs=("ecmp", "spray"),
    ccs=("fncc",),
    topos=("fattree",),
    workloads=("permutation",),
)


def sweep_values(specs, jobs):
    """The sweep's values, in spec order."""
    return [r.value for r in SweepExecutor(jobs=jobs).map(specs)]


class TestLbmatrixSerialVsParallel:
    @pytest.fixture(scope="class")
    def serial_and_parallel(self):
        serial = run_lbmatrix(seed=7, jobs=1, **SLICE)
        parallel = run_lbmatrix(seed=7, jobs=2, **SLICE)
        with live_thread():
            spawned = run_lbmatrix(seed=7, jobs=2, **SLICE)
        return serial, parallel, spawned

    def test_same_keys(self, serial_and_parallel):
        serial, parallel, spawned = serial_and_parallel
        assert set(serial) == set(parallel) == set(spawned)

    def test_fct_fingerprints_byte_identical(self, serial_and_parallel):
        serial, parallel, spawned = serial_and_parallel
        for key, cell in serial.items():
            fp = cell.fct_fingerprint()
            assert fp == parallel[key].fct_fingerprint() == spawned[key].fct_fingerprint(), key
            assert len(fp) == cell.n_flows

    def test_statistics_identical(self, serial_and_parallel):
        serial, parallel, spawned = serial_and_parallel
        for key, cell in serial.items():
            for other in (parallel[key], spawned[key]):
                assert cell.mean_fct_us == other.mean_fct_us
                assert cell.p99_fct_us == other.p99_fct_us
                assert cell.table.aggregate("average") == other.table.aggregate("average")
                assert cell.completed() == other.completed()
                assert cell.events_dispatched == other.events_dispatched

    def test_seed_still_matters(self, serial_and_parallel):
        serial = serial_and_parallel[0]
        other_seed = run_lbmatrix(seed=8, jobs=1, **SLICE)
        key = ("fattree", "permutation", "spray", "fncc")
        assert serial[key].fct_fingerprint() != other_seed[key].fct_fingerprint()


class TestMultiSeedMicrobench:
    """A multi-seed Fig. 9-style replication: same spec list run serially
    and on two workers must agree on every sampled series."""

    SEEDS = (1, 2, 3)

    def _specs(self):
        return [
            RunSpec(
                fn="repro.experiments.common:run_microbench",
                kwargs=dict(cc="fncc", link_rate_gbps=100.0, duration_us=150.0),
                key=s,
                seed=s,
            )
            for s in self.SEEDS
        ]

    def test_fingerprints_byte_identical(self):
        serial = sweep_values(self._specs(), jobs=1)
        parallel = sweep_values(self._specs(), jobs=2)
        with live_thread():
            spawned = sweep_values(self._specs(), jobs=2)
        assert len(serial) == len(parallel) == len(spawned) == len(self.SEEDS)
        for s, p, q in zip(serial, parallel, spawned):
            assert s.seed == p.seed == q.seed
            assert microbench_fingerprint(s) == microbench_fingerprint(p) == microbench_fingerprint(q)
            assert len(s.queue.times) > 0  # a real run, not an empty shell


class TestWorkerCrash:
    def test_bad_cc_in_worker_surfaces_traceback(self):
        """A spec that raises deep inside a worker (unknown CC scheme)
        must fail the sweep with the original error text — and the good
        spec's result must not hang behind it."""
        specs = [
            RunSpec(
                fn="repro.experiments.lbmatrix:run_lb_cell",
                kwargs=dict(lb="ecmp", cc="bbr"),
                key="crash",
                seed=1,
            ),
        ]
        with pytest.raises(SweepError) as exc:
            SweepExecutor(jobs=2).map(specs * 2)
        assert "unknown CC scheme" in str(exc.value)
        assert "ValueError" in exc.value.worker_traceback

    def test_crash_results_collectable_without_raise(self):
        specs = [
            RunSpec(
                fn="repro.experiments.lbmatrix:run_lb_cell",
                kwargs=dict(lb="ecmp", cc="bbr"),
                key="crash",
                seed=1,
            ),
            RunSpec(
                fn="repro.experiments.lbmatrix:run_lb_cell",
                kwargs=dict(lb="ecmp", cc="fncc", n_flows=10),
                key="fine",
                seed=1,
            ),
        ]
        results = SweepExecutor(jobs=2, raise_on_error=False).map(specs)
        assert not results[0].ok and "unknown CC scheme" in results[0].error
        assert results[1].ok and results[1].value.completed() > 0
