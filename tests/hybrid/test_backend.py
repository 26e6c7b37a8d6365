"""Hybrid backend tier-boundary properties (ISSUE 6 test checklist).

Every test here runs a deliberately small fabric — the full-fidelity gate
lives in ``repro.hybrid.validate`` and ``benchmarks/test_hybrid_validation``.
"""

import random

import pytest

from repro.analysis.flowsim import from_topology
from repro.experiments.common import launch_flows
from repro.experiments.fct_experiment import (
    build_fct_fabric,
    run_fct_experiment,
    run_fct_summary,
)
from repro.hybrid.backend import RIPPLE_ROUNDS, HybridConfig, run_fct_hybrid
from repro.metrics.fct import FctCollector
from repro.sim.engine import Simulator as EventSimulator
from repro.topo.dumbbell import dumbbell
from repro.transport.flow import Flow
from repro.units import MB, us

#: One small fabric cell shared by the parity tests: big enough to see
#: real sharing, small enough that the packet run stays in the seconds.
CELL = dict(workload="websearch", k=4, load=0.5, n_flows=30, scale=0.1, seed=2)


def packet_fingerprint(res):
    return tuple(sorted((r.flow.flow_id, r.fct_ps) for r in res.collector.records))


class TestDegenerateTiers:
    def test_threshold_zero_is_byte_identical_to_packet(self):
        """threshold=0 demotes everything: the hybrid *is* the packet
        engine, and the FCT fingerprint must match byte for byte."""
        pres = run_fct_experiment("fncc", **CELL)
        hres = run_fct_hybrid("fncc", threshold=0, **CELL)
        assert hres.stats["demoted"] == CELL["n_flows"]
        assert hres.fct_fingerprint() == packet_fingerprint(pres)

    def test_threshold_inf_reproduces_flowsim(self):
        """threshold=∞ keeps everything fluid: identical to running the
        flow-level simulator directly on the same fabric and flow set."""
        hres = run_fct_hybrid("fncc", threshold=None, **CELL)
        assert hres.stats["fluid"] == CELL["n_flows"]

        fab = build_fct_fabric("fncc", **CELL)
        fls, path_fn = from_topology(fab.topo)
        fres = fls.run(fab.flows, path_fn, ripple_rounds=RIPPLE_ROUNDS)
        want = tuple(sorted((r.flow.flow_id, r.fct_ps) for r in fres.records))
        assert hres.fct_fingerprint() == want

    @pytest.mark.parametrize("tier", [dict(threshold=None), dict(classify_fn=lambda f: False)])
    def test_a_fluid_only_pass_is_announced(self, tier):
        from repro.obs import EventTracer, RunObservability

        obs = RunObservability(tracer=EventTracer())
        run_fct_hybrid("fncc", obs=obs, **tier, **CELL)
        assert [e.name for e in obs.tracer.events if e.cat == "hybrid"][:1] == ["fluid"]

    def test_single_flow_slowdown_is_exactly_one(self):
        """An uncontended flow advances in closed form at its solo
        bottleneck rate: FCT == ideal FCT *exactly*, not approximately."""
        res = run_fct_hybrid(
            "fncc", workload="websearch", k=4, load=0.5, n_flows=1, scale=0.1, seed=3
        )
        assert res.completed() == 1
        rec = res.collector.records[0]
        assert rec.fct_ps == rec.ideal_fct_ps
        assert rec.slowdown == 1.0


class TestPartitionInvariance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_partition_conserves_flows(self, seed):
        """Any demotion choice — even a coin flip per flow — must complete
        every flow exactly once: no losses, no double completions."""
        rng = random.Random(seed)
        picks = {}

        def classify(flow):
            return picks.setdefault(flow.flow_id, rng.random() < 0.5)

        res = run_fct_hybrid("fncc", classify_fn=classify, **CELL)
        ids = [fid for fid, _ in res.fct_fingerprint()]
        assert len(ids) == CELL["n_flows"]
        assert len(set(ids)) == CELL["n_flows"]
        assert res.stats["demoted"] == sum(picks.values())
        assert res.stats["demoted"] + res.stats["fluid"] == CELL["n_flows"]

    def test_all_true_partition_matches_packet(self):
        res = run_fct_hybrid("fncc", classify_fn=lambda f: True, **CELL)
        pres = run_fct_experiment("fncc", **CELL)
        assert res.fct_fingerprint() == packet_fingerprint(pres)

    def test_all_false_partition_is_pure_fluid(self):
        res = run_fct_hybrid("fncc", classify_fn=lambda f: False, **CELL)
        assert res.stats["demoted"] == 0
        assert res.completed() == CELL["n_flows"]


@pytest.fixture
def fluid_passes(monkeypatch):
    """Counts FlowLevelSimulator.run calls (what a fluid pass costs)."""
    from repro.analysis.flowsim import FlowLevelSimulator

    calls = []
    real = FlowLevelSimulator.run

    def counted(self, *args, **kwargs):
        calls.append(kwargs)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FlowLevelSimulator, "run", counted)
    return calls


class TestPassCount:
    """The fluid trajectory is simulated once; background load is replayed
    from its history, so refining costs no extra passes."""

    def test_demoting_cell_runs_two_passes(self, fluid_passes):
        res = run_fct_hybrid("fncc", **CELL)
        assert 0 < res.stats["demoted"] < CELL["n_flows"]
        assert len(fluid_passes) == 2 == res.stats["fluid_passes"]
        assert res.stats["bg_replay_entries"] > 0
        # Only the pass that is replayed keeps a history.
        assert [bool(kw.get("keep_history")) for kw in fluid_passes] == [True, False]

    def test_refining_cell_still_runs_two_passes(self, fluid_passes):
        # DCQCN marks ECN, which triggers refinement (FNCC cells this
        # small produce nothing the fluid tier cannot see).
        cell = dict(CELL, seed=1)
        res = run_fct_hybrid("dcqcn", **cell)
        assert res.stats["refine_rounds"] >= 1
        assert len(fluid_passes) == 2 == res.stats["fluid_passes"]
        # One replay per round, each over the whole history.
        rounds = res.stats["refine_rounds"] + 1
        assert res.stats["bg_replay_entries"] % rounds == 0

    def test_nothing_demoted_cell_runs_one_pass(self, fluid_passes):
        # A flow floor no link reaches: the predicate demotes nothing and
        # the classification pass's records are the answer.
        cfg = HybridConfig(min_link_flows=10_000, mouse_bytes=0)
        res = run_fct_hybrid("fncc", config=cfg, **CELL)
        assert res.stats["demoted"] == 0
        assert len(fluid_passes) == 1 == res.stats["fluid_passes"]
        assert res.stats["bg_replay_entries"] == 0
        pure = run_fct_hybrid("fncc", threshold=None, **CELL)
        assert res.fct_fingerprint() == pure.fct_fingerprint()
        assert res.stats["fluid_events"] == pure.stats["fluid_events"]

    def test_classify_fn_cell_runs_two_passes(self, fluid_passes):
        res = run_fct_hybrid(
            "fncc", classify_fn=lambda f: f.flow_id % 2 == 0, **CELL
        )
        assert res.stats["demoted"] == CELL["n_flows"] // 2
        assert len(fluid_passes) == 2 == res.stats["fluid_passes"]

    def test_degenerate_partitions_skip_what_they_do_not_need(self, fluid_passes):
        res = run_fct_hybrid("fncc", classify_fn=lambda f: True, **CELL)
        assert len(fluid_passes) == 0 == res.stats["fluid_passes"]
        res = run_fct_hybrid("fncc", classify_fn=lambda f: False, **CELL)
        assert len(fluid_passes) == 1 == res.stats["fluid_passes"]


class TestDumbbellFairness:
    def test_fluid_tier_fairness_matches_packet(self):
        """Two equal elephants on the dumbbell: the fluid tier's max-min
        split must agree with the packet engine's CC-converged split."""
        sim = EventSimulator()
        topo = dumbbell(sim, n_senders=2)
        fls, path_fn = from_topology(topo)
        recv = topo.hosts[-1].host_id
        flows = [Flow(0, 0, recv, 5 * MB), Flow(1, 1, recv, 5 * MB)]
        fres = fls.run(flows, path_fn)
        fluid = sorted(r.slowdown for r in fres.records)
        # Max-min says the two shares are identical.
        assert fluid[0] == pytest.approx(fluid[1], rel=1e-9)

        from helpers import make_dumbbell

        sim2 = EventSimulator()
        topo2, env = make_dumbbell(sim2, cc="fncc")
        col = FctCollector(topo2)
        recv2 = topo2.hosts[-1].host_id
        launch_flows(
            topo2, [Flow(0, 0, recv2, 5 * MB), Flow(1, 1, recv2, 5 * MB)], env
        )
        sim2.run(until=us(20_000))
        pkt = sorted(r.slowdown for r in col.records)
        assert len(pkt) == 2
        for fs, ps in zip(fluid, pkt):
            assert ps == pytest.approx(fs, rel=0.25)


class TestPfcBehindBackgroundDrains:
    def test_strict_cell_pausing_ports_that_drain_completes(self):
        """At load 0.6 on k=4 the packet phase pauses ports whose only
        committed frames wait behind ``bg_drain`` bytes: 16 uncommits of
        this cell take the whole of ``_inflight``, and the run used to die
        in ``Port._tx_deliver`` with ``IndexError: pop from an empty
        deque``.  Of 24 cells at or under 1600 flows none reaches it."""
        from golden import _strict_config

        res = run_fct_hybrid(
            "fncc", workload="websearch", k=4, load=0.6, n_flows=3000,
            scale=0.01, seed=1, config=_strict_config(),
        )
        assert res.completed() == res.n_flows == 3000
        assert res.stats["demoted"] and res.stats["bg_drain_events"]


class TestBackendSelection:
    def test_run_fct_summary_backend_dispatch(self):
        kw = dict(workload="websearch", k=4, load=0.5, n_flows=8, scale=0.1)
        s = run_fct_summary("fncc", seed=4, backend="hybrid", **kw)
        assert s.stats["fluid_passes"] >= 1
        assert s.completed() == 8
        # The all-fluid tier has no CC dynamics (every CC gave the same
        # FCTs), so it is no backend choice.
        for backend in ("flow", "ns3"):
            with pytest.raises(ValueError, match=r"\('packet', 'hybrid'\)"):
                run_fct_summary("fncc", backend=backend, **kw)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HybridConfig(min_link_flows=0)
        with pytest.raises(ValueError):
            HybridConfig(epoch_us=0)
        with pytest.raises(ValueError):
            HybridConfig(mouse_bytes=-1)
        with pytest.raises(ValueError):
            HybridConfig(congested_frac=1.5)
        # Knobs that used to reach the run: refine_rounds=-1 ran as 0,
        # threshold=nan compared false everywhere and demoted nothing.
        with pytest.raises(ValueError, match="refine_rounds"):
            HybridConfig(refine_rounds=-1)
        with pytest.raises(ValueError, match="threshold"):
            HybridConfig(threshold=float("nan"))
        # A negative threshold demoted every flow, so the fidelity gate
        # compared the packet engine with itself and passed.
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            HybridConfig(threshold=-0.5)
        HybridConfig(threshold=0)
        # The documented "keep everything fluid" spellings stay legal.
        HybridConfig(threshold=None)
        HybridConfig(threshold=float("inf"))
        # run_fct_hybrid's threshold= override obeys the same rule, before
        # any fabric is built: threshold=-1 ran the packet experiment and
        # returned it as a hybrid cell with every flow demoted.
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            run_fct_hybrid("fncc", threshold=-1, **CELL)
        with pytest.raises(ValueError, match="threshold must not be NaN"):
            run_fct_hybrid("fncc", threshold=float("nan"), **CELL)

    def test_validate_cli_unknown_cc_is_one_line_error(self, capsys):
        """``python -m repro.hybrid.validate --cc nope`` (and a seed or a
        threshold out of range) used to die with a ValueError traceback;
        each is refused before any cell runs."""
        from repro.hybrid.validate import main

        for bad, message in [
            (["--cc", "nope"], "unknown CC scheme 'nope'"),
            (["--seed", "-1"], "root seed must be a non-negative 63-bit integer"),
            (["--threshold", "nan"], "threshold must not be NaN"),
            (["--threshold", "-1"], "threshold must be >= 0"),
        ]:
            assert main(["--scenario", "fig14", "--quick", *bad]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {message}")
            assert captured.err.count("\n") == 1

    def test_validate_fails_a_run_that_completes_no_flow(self):
        """A horizon too short for any flow to finish on one side is a
        failing report, not a ks_distance ValueError."""
        from repro.hybrid.validate import validate

        report = validate("fig15", quick=True, max_horizon_ms=0.002)
        assert report.completed_packet == 0
        assert report.completed_hybrid < report.n_flows == 200
        assert report.ks == 1.0
        assert not report.passed
        assert "FAIL" in report.format()
