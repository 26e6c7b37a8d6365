"""MetricsRegistry: instruments, pull collectors, snapshot schema, worker
merge semantics and the per-run ownership rule."""

import pytest

from repro.exec import SweepExecutor
from repro.experiments.fct_experiment import compare_ccs_sweep, run_fct_summary
from repro.obs import MetricsRegistry, RunObservability, merge_snapshots


class TestInstruments:
    def test_counters_sum_into_the_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["meta"] == {"runs": 1}

    def test_instruments_are_memoized_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")


class TestRunBinding:
    def test_bind_sim_is_per_run(self, sim):
        from repro.sim.engine import Simulator

        reg = MetricsRegistry()
        reg.bind_sim(sim)
        reg.bind_sim(sim)  # same simulator: idempotent
        with pytest.raises(ValueError):
            reg.bind_sim(Simulator())

    def test_reset_run_bindings_allows_rebuild(self, sim):
        from repro.sim.engine import Simulator

        reg = MetricsRegistry()
        reg.counter("kept").inc(3)
        reg.bind_sim(sim)
        reg.reset_run_bindings()
        reg.bind_sim(Simulator())  # rebuilt fabric of the same run
        snap = reg.snapshot()
        assert snap["counters"]["kept"] == 3  # push instruments survive

    def test_attach_rebinds_on_new_sim(self, sim):
        from repro.sim.engine import Simulator

        class _Topo:
            hosts = ()
            switches = ()

            def nodes(self):
                return []

        obs = RunObservability(registry=MetricsRegistry())
        obs.attach(sim, _Topo())
        sim2 = Simulator()
        obs.attach(sim2, _Topo())  # must not raise; drops the old collectors
        snap = obs.snapshot()
        assert snap["counters"]["engine.events_dispatched"] == 0

    def test_run_snapshot_keys(self):
        obs = RunObservability(registry=MetricsRegistry())
        run_fct_summary(
            "fncc", workload="websearch", n_flows=30, seed=2,
            max_horizon_ms=30.0, obs=obs,
        )
        snap = obs.snapshot()
        for key in (
            "engine.events_dispatched",
            "ports.tx_packets",
            "ports.tx_bytes",
            "ports.rx_packets",
            "pfc.pause_sent",
            "flows.completed",
        ):
            assert key in snap["counters"], key
        assert snap["counters"]["engine.events_dispatched"] > 0
        assert snap["counters"]["flows.completed"] == 30
        assert "engine.now_ps" in snap["gauges"]
        assert "ports.max_qlen" in snap["gauges"]


class TestMergeSnapshots:
    def test_merge_semantics(self):
        a = {
            "counters": {"c": 2, "only_a": 1},
            "gauges": {"g": 5},
            "meta": {"runs": 1},
        }
        b = {
            "counters": {"c": 3},
            "gauges": {"g": 9, "only_b": 2},
            "meta": {"runs": 2},
        }
        m = merge_snapshots([a, None, b])
        assert m["counters"] == {"c": 5, "only_a": 1}
        assert m["gauges"] == {"g": 9, "only_b": 2}
        assert m["meta"]["runs"] == 3


class TestWorkerSnapshots:
    """``obs_snapshot=True`` builds the registry inside the worker; the
    snapshot rides home on the summary and merges across workers with the
    same totals serial execution produces."""

    KW = dict(
        ccs=("fncc", "dcqcn"),
        workload="websearch",
        n_flows=30,
        seed=2,
        max_horizon_ms=30.0,
        obs_snapshot=True,
    )

    def test_serial_and_pooled_merge_identically(self):
        serial = compare_ccs_sweep(jobs=1, **self.KW)
        pooled = compare_ccs_sweep(
            executor=SweepExecutor(jobs=2), **self.KW
        )
        for results in (serial, pooled):
            for s in results.values():
                assert s.obs_snapshot is not None
                assert s.obs_snapshot["counters"]["flows.completed"] == 30
        m_serial = merge_snapshots(s.obs_snapshot for s in serial.values())
        m_pooled = merge_snapshots(s.obs_snapshot for s in pooled.values())
        # Gauge engine.now_ps reflects each run's final clock; counters and
        # meta must agree exactly across execution modes.
        assert m_serial["counters"] == m_pooled["counters"]
        assert m_serial["meta"]["runs"] == m_pooled["meta"]["runs"] == 2
