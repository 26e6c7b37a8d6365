"""FCT collection, binning, and the slowdown tables of Figs. 14/15."""

import pytest

from repro.metrics.fct import (
    SIZE_BINS_HADOOP,
    SIZE_BINS_WEBSEARCH,
    FctCollector,
    SlowdownTable,
)
from repro.transport.flow import Flow, FlowRecord
from repro.units import KB, MB, us


def record(size, slowdown, flow_id=0):
    f = Flow(flow_id, 0, 1, size)
    rec = FlowRecord(f, finish_ps=us(10 * slowdown))
    rec.ideal_fct_ps = us(10)
    return rec


class TestSlowdownTable:
    def test_binning_first_upper_bound_wins(self):
        t = SlowdownTable([10 * KB, 100 * KB, MB])
        t.add(5 * KB, 2.0)
        t.add(10 * KB, 3.0)  # boundary: belongs to the 10 KB bin
        t.add(50 * KB, 4.0)
        t.add(MB, 5.0)
        counts = t.row_counts()
        assert counts[10 * KB] == 2
        assert counts[100 * KB] == 1
        assert counts[MB] == 1

    def test_overflow_bucket(self):
        t = SlowdownTable([10 * KB])
        t.add(20 * KB, 9.0)
        assert t.row_counts()[10 * KB] == 0
        assert t.overflow == [9.0]

    def test_stats_per_bin(self):
        t = SlowdownTable([10 * KB])
        for s in (1.0, 2.0, 3.0, 4.0):
            t.add(KB, s)
        assert t.stat(10 * KB, "average") == pytest.approx(2.5)
        assert t.stat(10 * KB, "median") == pytest.approx(2.5)
        assert t.stat(10 * KB, "p95") == pytest.approx(3.85)
        assert t.stat(10 * KB, "p99") == pytest.approx(3.97)

    def test_empty_bin_returns_none(self):
        t = SlowdownTable([10 * KB])
        assert t.stat(10 * KB, "average") is None

    def test_unknown_column_rejected(self):
        t = SlowdownTable([10 * KB])
        t.add(KB, 1.0)
        with pytest.raises(ValueError):
            t.stat(10 * KB, "p50.5")

    def test_unknown_column_rejected_on_an_empty_bin_too(self):
        # The emptiness test used to run first: a typo returned None.
        t = SlowdownTable([10 * KB])
        with pytest.raises(ValueError, match="bogus"):
            t.stat(10 * KB, "bogus")

    def test_aggregate_size_band(self):
        t = SlowdownTable([10 * KB, 100 * KB, MB])
        t.add(KB, 10.0)     # <=10KB
        t.add(50 * KB, 2.0)  # <=100KB
        t.add(500 * KB, 4.0)  # <=1MB
        short = t.aggregate("average", max_size=100 * KB)
        assert short == pytest.approx(6.0)
        long = t.aggregate("average", min_size=100 * KB)
        assert long == pytest.approx(4.0)

    def test_aggregate_includes_overflow_when_unbounded(self):
        t = SlowdownTable([10 * KB])
        t.add(KB, 1.0)
        t.add(50 * MB, 9.0)  # overflow
        assert t.aggregate("average") == pytest.approx(5.0)

    def test_aggregate_empty_returns_none(self):
        t = SlowdownTable([10 * KB])
        assert t.aggregate("p95") is None

    def test_aggregate_unknown_column_rejected_empty_or_not(self):
        t = SlowdownTable([10 * KB])
        with pytest.raises(ValueError, match="bogus"):
            t.aggregate("bogus")
        t.add(KB, 1.0)
        with pytest.raises(ValueError, match="bogus"):
            t.aggregate("bogus")

    def test_from_records(self):
        recs = [record(KB, 2.0), record(5 * MB, 3.0, flow_id=1)]
        t = SlowdownTable.from_records(recs, SIZE_BINS_WEBSEARCH)
        assert t.row_counts()[10 * KB] == 1

    def test_paper_bins_exact(self):
        assert SIZE_BINS_WEBSEARCH[0] == 10 * KB
        assert SIZE_BINS_WEBSEARCH[-1] == 30 * MB
        assert SIZE_BINS_HADOOP[0] == 75
        assert SIZE_BINS_HADOOP[-1] == MB
        assert len(SIZE_BINS_WEBSEARCH) == 11
        assert len(SIZE_BINS_HADOOP) == 13


class TestCollectorWiring:
    def test_collector_attaches_to_all_hosts(self, sim):
        from repro.topo.star import star

        topo = star(sim, 3)
        col = FctCollector(topo)
        for h in topo.hosts:
            assert h.fct_sink is not None
        assert col.completed() == 0

    def test_records_on_completion(self, sim):
        from repro.experiments.common import build_cc_env, launch_flows
        from repro.topo.star import star

        env = build_cc_env("fncc")
        topo = star(sim, 3, switch_config=env.switch_config)
        col = FctCollector(topo)
        launch_flows(topo, [Flow(0, 0, 2, 100_000)], env)
        sim.run(until=us(10_000))
        assert col.completed() == 1
        rec = col.records[0]
        assert rec.ideal_fct_ps > 0
        assert rec.slowdown >= 1.0
