"""Determinism regression guard for the hot-path rewrite (single-event
link pipeline, lazy event cancellation).

Two runs of the same seeded scenario must agree on *everything* the
engine/port rewrite could perturb: dispatch counts, FCT aggregates, and
PFC pause-frame counts.  See DESIGN.md §determinism."""

from repro.experiments.common import run_microbench
from repro.experiments.fct_experiment import run_fct_experiment
from repro.metrics.monitors import pause_frame_count


def _micro_fingerprint(result):
    return {
        "events": result.sim.events_dispatched,
        "pause_frames": result.pause_frames,
        "queue": tuple(result.queue.values),
        "rates": {
            fid: tuple(series.values) for fid, series in result.rates.items()
        },
        "tx": tuple(
            p.stats.tx_packets
            for sw in result.topo.switches
            for p in sw.ports
        ),
    }


class TestMicrobenchDeterminism:
    def test_fncc_fingerprint_identical_across_runs(self):
        a = run_microbench("fncc", duration_us=400.0, seed=11)
        b = run_microbench("fncc", duration_us=400.0, seed=11)
        assert _micro_fingerprint(a) == _micro_fingerprint(b)

    def test_pfc_heavy_run_identical(self):
        # A tight XOFF forces real pause/resume traffic through the
        # uncommit/recommit path; counts must still be bit-identical.
        a = run_microbench("fncc", duration_us=400.0, seed=3, pfc_xoff=40_000)
        b = run_microbench("fncc", duration_us=400.0, seed=3, pfc_xoff=40_000)
        assert a.pause_frames > 0  # the scenario actually exercises PFC
        assert _micro_fingerprint(a) == _micro_fingerprint(b)


class TestFctDeterminism:
    def test_fct_aggregates_and_pauses_identical(self):
        a = run_fct_experiment("fncc", workload="websearch", n_flows=80, seed=7)
        b = run_fct_experiment("fncc", workload="websearch", n_flows=80, seed=7)
        fct_a = sorted((r.flow.flow_id, r.fct_ps) for r in a.collector.records)
        fct_b = sorted((r.flow.flow_id, r.fct_ps) for r in b.collector.records)
        assert fct_a == fct_b
        assert a.sim.events_dispatched == b.sim.events_dispatched

    def test_pause_counts_identical(self):
        # Small buffers + tight XOFF to actually generate pauses.
        kw = dict(
            workload="websearch", n_flows=60, seed=5, pfc_xoff=30_000
        )
        a = run_fct_experiment("fncc", **kw)
        b = run_fct_experiment("fncc", **kw)
        # pause counts per switch, order-sensitive
        pa = [sw.total_pause_frames() for sw in a_topo_switches(a)]
        pb = [sw.total_pause_frames() for sw in a_topo_switches(b)]
        assert pa == pb


def a_topo_switches(result):
    # FctResult does not expose the topology directly; the collector does.
    return result.collector.topo.switches
