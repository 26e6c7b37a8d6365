"""The headline guarantee of the sweep executor: serial (``jobs=1``) and
parallel (``jobs=N``) executions of the same specs produce byte-identical
results — FCT fingerprints for the CC × LB matrix, full sampled series
for multi-seed microbench runs — and a crashing spec surfaces its
traceback instead of hanging the pool."""

import pytest

from repro.exec import RunSpec, SweepError, SweepExecutor, run_sweep
from repro.experiments.lbmatrix import run_lbmatrix

#: One reduced lbmatrix slice: 2 LB strategies x 1 CC on the fat-tree
#: permutation scenario (the cells the acceptance tests pin).
SLICE = dict(
    lbs=("ecmp", "spray"),
    ccs=("fncc",),
    topos=("fattree",),
    workloads=("permutation",),
)


class TestLbmatrixSerialVsParallel:
    @pytest.fixture(scope="class")
    def serial_and_parallel(self):
        serial = run_lbmatrix(seed=7, jobs=1, **SLICE)
        parallel = run_lbmatrix(seed=7, jobs=2, **SLICE)
        return serial, parallel

    def test_same_keys(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert set(serial) == set(parallel)

    def test_fct_fingerprints_byte_identical(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        for key, cell in serial.items():
            assert cell.fct_fingerprint() == parallel[key].fct_fingerprint(), key
            assert len(cell.fct_fingerprint()) == cell.n_flows

    def test_statistics_identical(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        for key, cell in serial.items():
            other = parallel[key]
            assert cell.mean_fct_us == other.mean_fct_us
            assert cell.p99_fct_us == other.p99_fct_us
            assert cell.mean_slowdown == other.mean_slowdown
            assert cell.completed == other.completed
            assert cell.events_dispatched == other.events_dispatched

    def test_seed_still_matters(self, serial_and_parallel):
        serial, _ = serial_and_parallel
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
        serial = run_sweep(self._specs(), jobs=1)
        parallel = run_sweep(self._specs(), jobs=2)
        assert len(serial) == len(parallel) == len(self.SEEDS)
        for s, p in zip(serial, parallel):
            assert s.seed == p.seed
            assert s.fingerprint() == p.fingerprint()
            assert len(s.queue) > 0  # a real run, not an empty shell


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
        assert results[1].ok and results[1].value.completed > 0
