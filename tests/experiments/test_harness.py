"""Experiment harness: CC environment wiring and the per-figure runners
(scaled down so the whole file stays test-suite fast)."""

import re
from pathlib import Path

import pytest

from repro.cc.dcqcn import Dcqcn
from repro.cc.fncc import Fncc
from repro.experiments.common import build_cc_env, quick_dumbbell, run_microbench
from repro.net.switch import IntMode
from repro.units import KB, us


class TestBuildCcEnv:
    def test_fncc_gets_fncc_int_mode(self):
        env = build_cc_env("fncc")
        assert env.switch_config.int_mode is IntMode.FNCC
        assert not env.cnp_enabled
        assert isinstance(env.cc_factory(None, None), Fncc)

    def test_hpcc_gets_hpcc_int_mode(self):
        assert build_cc_env("hpcc").switch_config.int_mode is IntMode.HPCC

    def test_dcqcn_gets_ecn_and_cnp(self):
        env = build_cc_env("dcqcn")
        assert env.switch_config.ecn is not None
        assert env.cnp_enabled
        assert isinstance(env.cc_factory(None, None), Dcqcn)

    def test_dcqcn_ecn_scales_with_rate(self):
        e100 = build_cc_env("dcqcn", link_rate_gbps=100.0).switch_config.ecn
        e400 = build_cc_env("dcqcn", link_rate_gbps=400.0).switch_config.ecn
        assert e400.kmin == 4 * e100.kmin
        assert e400.kmax == 4 * e100.kmax

    def test_rocc_post_install_attaches_controllers(self, sim):
        from helpers import make_dumbbell

        topo, env = make_dumbbell(sim, cc="rocc")
        assert all(
            any(c is not None for c in sw.port_controllers) for sw in topo.switches
        )

    def test_unknown_cc_rejected(self):
        with pytest.raises(ValueError):
            build_cc_env("bbr")

    def test_cc_params_forwarded(self):
        env = build_cc_env("fncc", beta=0.7)
        assert env.cc_factory(None, None).config.beta == 0.7


class TestOneCellShape:
    """Structural guard: each decision of a cell has one implementation
    (DESIGN.md §5.1).  The copies this replaced had drifted — a shard
    builder that had lost ``lb=``, an ablation scaffold without
    ``post_install`` — so they must not grow back unnoticed."""

    SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

    def _sources(self, *subdirs):
        roots = [self.SRC / d for d in subdirs] or [self.SRC]
        return {p: p.read_text(encoding="utf-8") for r in roots for p in r.rglob("*.py")}

    def test_fabric_preamble_and_portstats_row_exist_once(self):
        sources = self._sources()
        callers = [
            m.group(1)
            for text in sources.values()
            for chunk in re.split(r"^(?=def |class )", text, flags=re.M)
            if "env.post_install(" in chunk
            for m in [re.match(r"(?:def|class) (\w+)", chunk)]
        ]
        assert callers == ["build_fabric"]
        rows = sum(
            len(re.findall(r"port\.resume_received,\s*port\.max_qlen,\s*port\.train_frames", t))
            for t in sources.values()
        )
        assert rows == 1

    def test_fingerprint_tuple_lives_on_the_collector(self):
        for path, text in self._sources("experiments", "hybrid", "shard").items():
            assert "(r.flow.flow_id, r.fct_ps)" not in text, path

    def test_summary_twins_are_gone(self):
        gone = (
            "LbCellSummary", "FaultCellSummary", "MicrobenchSummary", "portstats_rows",
            "FctSummary", "FctCell", "HybridFctResult", "def compare_ccs(",
        )
        for path, text in self._sources().items():
            for name in gone:
                assert name not in text, f"{path}: {name}"

    def test_fabric_state_has_one_home(self):
        """A port's counters live on the ``Port``, routing tables are the
        dict ``install_lb`` returns, and a built cell is one ``Fabric``:
        the types and the attribute that only held or forwarded them stay
        gone."""
        gone = ("PortStats", "RoutingTables", "FctFabric", "routing_tables")
        for path, text in self._sources().items():
            for name in gone:
                assert name not in text, f"{path}: {name}"

    def test_monitored_egress_and_matrix_fabric_are_decided_once(self):
        """``run_microbench`` alone derives the monitored egress (a topology
        only names its congested switch), and ``lbmatrix`` alone holds the
        matrix sizes and builds the fat-tree permutation cell that the
        fault matrix reuses."""
        for path, text in self._sources().items():
            assert "congested_port_index" not in text, path
            assert "def fig11_chain" not in text, path
        experiments = self._sources("experiments")
        perm_bytes = sorted(p.name for p, t in experiments.items() if "300 * KB" in t)
        assert perm_bytes == ["lbmatrix.py"]
        fault = experiments[self.SRC / "experiments" / "faultmatrix.py"]
        for own_copy in ("build_fabric(", "permutation_flows(", "fattree(", "k=4"):
            assert own_copy not in fault, own_copy


class TestPortstatsFingerprint:
    #: The pinned row layout after (node name, port index).
    COLUMNS = (
        "tx_packets", "tx_bytes", "rx_packets", "rx_bytes", "drops", "ecn_marked",
        "pause_sent", "pause_received", "resume_sent", "resume_received",
        "max_qlen", "train_frames",
    )

    def test_every_column_is_the_same_named_port_attribute(self):
        from repro.experiments.common import portstats_fingerprint
        from repro.experiments.fct_experiment import run_fct_experiment

        # DCQCN marks ECN, so that column is live too.
        r = run_fct_experiment("dcqcn", k=4, load=0.5, n_flows=40, scale=0.05, seed=3)
        rows = portstats_fingerprint(r.topo)
        ports = {
            (node.name, port.index): port
            for node in list(r.topo.hosts) + list(r.topo.switches)
            for port in node.ports
        }
        assert sorted(ports) == sorted(row[:2] for row in rows)
        for row in rows:
            port = ports[row[:2]]
            assert row[2:] == tuple(getattr(port, c) for c in self.COLUMNS), row[:2]
        totals = dict(zip(self.COLUMNS, map(sum, zip(*(row[2:] for row in rows)))))
        assert totals["tx_packets"] == totals["rx_packets"] > 0
        assert totals["ecn_marked"] > 0


class TestMicrobench:
    def test_quick_dumbbell_returns_series(self):
        r = quick_dumbbell("fncc", duration_us=120.0)
        assert len(r.queue.times) > 0
        assert 0 in r.rates and 1 in r.rates
        assert r.peak_queue_bytes >= 0

    def test_monitor_targets_congestion_port(self):
        r = run_microbench("fncc", duration_us=400.0)
        # Two elephants at line rate into one egress: a queue must form
        # after the second join (300 us).
        assert r.queue.max_after(us(300)) > 0

    def test_custom_flow_size_and_stagger(self):
        r = run_microbench(
            "fncc", duration_us=150.0, flow_size_bytes=2000 * KB, stagger_us=50.0
        )
        assert r.queue.max_after(us(50)) > 0


class TestFig1HwTrends:
    def test_rows_and_trend(self):
        from repro.experiments.fig1_hw_trends import absorption_is_shrinking, run_fig1a

        rows = run_fig1a()
        assert len(rows) == 4
        assert absorption_is_shrinking(rows)

    def test_absorption_formula(self):
        from repro.traffic.distributions import buffer_per_capacity_us

        # 64 MB at 12.8 Tb/s = 512 Mbit / 12.8e12 = 40 us.
        assert buffer_per_capacity_us(12.8, 64.0) == pytest.approx(40.0)


class TestFig13Fairness:
    def test_staircase_and_jain(self):
        from repro.experiments.fig13_fairness import run_fairness

        res = run_fairness("fncc", n_flows=3, epoch_us=300.0, sample_us=5.0)
        # Probe late in each join epoch: fair share must match active count.
        for k in range(3):
            t = round((k + 0.9) * res.epoch_ps)
            active = res.active_flows_at(t)
            assert len(active) == k + 1
            assert res.jain_index_at(t) > 0.85, f"epoch {k}: unfair"

    def test_flows_exit_in_sequence(self):
        from repro.experiments.fig13_fairness import run_fairness

        res = run_fairness("fncc", n_flows=2, epoch_us=200.0, sample_us=5.0)
        t_after_first_leave = round(2.5 * res.epoch_ps)
        assert res.active_flows_at(t_after_first_leave) == [1]
        # Remaining flow ramps back toward line rate.
        assert res.rates[1].value_at(round(2.95 * res.epoch_ps)) > 60.0


class TestFctExperiment:
    def test_small_run_completes_and_bins(self):
        from repro.experiments.fct_experiment import run_fct_experiment

        r = run_fct_experiment("fncc", workload="hadoop", n_flows=40, seed=2)
        assert r.completed() == 40
        table = r.table
        assert sum(table.row_counts().values()) + len(table.overflow) == 40

    def test_bins_scale_with_workload(self):
        from repro.experiments.fct_experiment import run_fct_experiment

        r = run_fct_experiment(
            "fncc", workload="websearch", n_flows=10, scale=0.01, seed=2
        )
        assert r.bins[0] == 100  # 10 KB * 0.01

    def test_unknown_workload_rejected(self):
        from repro.experiments.fct_experiment import run_fct_experiment

        with pytest.raises(ValueError):
            run_fct_experiment("fncc", workload="memcached")

    def test_format_panel_renders(self):
        from repro.experiments.fct_experiment import compare_ccs_sweep, format_panel

        res = compare_ccs_sweep(("fncc",), workload="hadoop", n_flows=20, seed=1)
        text = format_panel(res, "p95", "demo")
        assert "fncc" in text and "demo" in text


def _packet_cell():
    from repro.experiments.fct_experiment import run_fct_experiment

    return run_fct_experiment("fncc", workload="hadoop", n_flows=40, seed=2)


def _hybrid_cell():
    from repro.hybrid.backend import run_fct_hybrid

    r = run_fct_hybrid(
        "fncc", workload="websearch", k=4, load=0.5, n_flows=30, scale=0.1, seed=2
    )
    assert 0 < r.stats["demoted"] < r.n_flows  # both tiers ran
    return r


def _lb_cell():
    from repro.experiments.lbmatrix import run_lb_cell

    return run_lb_cell("spray", "fncc", seed=1)


def _fault_cell():
    from repro.experiments.faultmatrix import run_fault_cell

    r = run_fault_cell("linkdown", seed=1)
    assert r.failed and r.stats
    return r


class TestFctResultPortable:
    """Every driver's one result reads the same after a pickle round trip
    (what a pool worker sends home) as live, minus the live objects."""

    @staticmethod
    def _view(r):
        from repro.metrics.fct import PERCENTILE_COLUMNS

        t = r.table
        return (
            [t.stat(b, col) for b in t.bins for col in PERCENTILE_COLUMNS],
            t.row_counts(),
            t.overflow,
            r.completed(),
            r.fct_fingerprint(),
            r.events_dispatched,
            r.frame_hops,
            r.mean_fct_us,
            r.p99_fct_us,
            r.hung,
            r.stats,
        )

    @pytest.mark.parametrize(
        "run", [_packet_cell, _hybrid_cell, _lb_cell, _fault_cell],
        ids=["packet", "hybrid", "lb", "fault"],
    )
    def test_pickle_round_trip_keeps_every_statistic(self, run):
        import pickle

        live = run()
        assert live.completed() > 0 and live.events_dispatched > 0 and live.frame_hops > 0
        far = pickle.loads(pickle.dumps(live))
        assert self._view(far) == self._view(live)
        assert far.collector is far.sim is far.topo is None


class TestRunnerCli:
    def test_list(self, capsys):
        from repro.experiments.runner import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig9", "fig14", "headline"):
            assert name in out

    def test_unknown_experiment(self, capsys):
        from repro.experiments.runner import main

        assert main(["nonexistent"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "unknown experiment 'nonexistent'; use --list\n"

    def test_list_output_is_pinned(self, capsys):
        """Byte-for-byte what the runner printed when ``--list`` read the
        signatures off an eagerly imported table of all fifteen mains."""
        from repro.experiments.runner import main

        assert main(["--list"]) == 0
        assert capsys.readouterr().out == (
            "fig1a         \n"
            "fig1          \n"
            "fig3          \n"
            "fig9          [sweep: --jobs/--seed]\n"
            "fig13         \n"
            "fig13e        \n"
            "fig14         [sweep: --jobs/--seed/--quick/--backend/--trace/--progress]\n"
            "fig15         [sweep: --jobs/--seed/--backend]\n"
            "headline      [sweep: --jobs/--seed]\n"
            "lbmatrix      [sweep: --jobs/--seed/--quick]\n"
            "faultmatrix   [sweep: --jobs/--seed/--quick]\n"
            "ablations     [sweep: --jobs]\n"
            "theory        \n"
            "related-work  \n"
            "paper-scale   [sweep: --jobs/--seed]\n"
        )

    def test_options_read_from_source_are_the_signatures(self):
        """``--list`` and a figure run read each main()'s parameters from
        its module's source; they are what the imported main() takes."""
        import inspect

        from repro.experiments.runner import (
            _MODULES,
            _OPTIONS,
            _accepted_options,
            _experiment_main,
        )

        assert len(_MODULES) == 15
        for name in _MODULES:
            params = inspect.signature(_experiment_main(name)).parameters
            assert _accepted_options(name) == set(_OPTIONS) & set(params), name

    def test_running_one_experiment_imports_only_its_module(self):
        """A figure's process pays for its own module graph: after
        ``fncc-exp fig1a`` none of the other fourteen figure modules is
        loaded (``common``/``fct_experiment`` are shared infrastructure)."""
        import json
        import subprocess
        import sys

        from repro.experiments.runner import _MODULES

        code = (
            "import json, sys\n"
            "from repro.experiments.runner import main\n"
            "assert main(['fig1a']) == 0\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('repro.experiments.')]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout.splitlines()[-1]))
        figure_modules = {f"repro.experiments.{m}" for m in _MODULES.values()}
        assert len(figure_modules) == 15
        assert loaded & figure_modules == {"repro.experiments.fig1_hw_trends"}

    def test_fig1a_runs(self, capsys):
        from repro.experiments.runner import main

        assert main(["fig1a"]) == 0
        assert "spectrum" in capsys.readouterr().out

    def test_list_marks_sweep_enabled(self, capsys):
        from repro.experiments.runner import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        lines = {ln.split()[0]: ln for ln in out.splitlines() if ln.strip()}
        for name in ("lbmatrix", "fig14", "fig9", "ablations", "paper-scale"):
            assert "[sweep" in lines[name], name
        assert "[sweep" not in lines["fig1a"]

    def test_jobs_on_non_sweep_experiment_noted_and_ignored(self, capsys):
        from repro.experiments.runner import main

        # One loop rather than one parametrized test per option: the test
        # id is part of the tier-1 floor.
        cases = (
            (["--jobs", "2"], "is not sweep-enabled; ignoring --jobs"),
            (["--seed", "9"], "does not take --seed; ignoring"),
            (["--quick"], "has no --quick slice; ignoring"),
            (["--backend", "hybrid"], "does not take --backend; ignoring"),
            (["--trace", "/nonexistent/t.json"], "does not take --trace; ignoring"),
            (["--progress"], "does not take --progress; ignoring"),
        )
        for argv, note in cases:
            assert main(["fig1a", *argv]) == 0
            captured = capsys.readouterr()
            assert captured.err == f"note: fig1a {note}\n", argv
            assert "spectrum" in captured.out, argv  # ran all the same
        # All six at once, given in reverse: one note each, in table order.
        assert main(["fig1a", *(a for argv, _ in reversed(cases) for a in argv)]) == 0
        assert capsys.readouterr().err == "".join(
            f"note: fig1a {note}\n" for _, note in cases
        )

    def test_bad_jobs_rejected(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["fig1a", "--jobs", "0"])

    def test_bad_seed_rejected_before_any_cell(self, capsys):
        from repro.experiments.runner import main

        for seed in ("-1", str(2**63), "x"):
            with pytest.raises(SystemExit) as exc:
                main(["lbmatrix", "--quick", "--seed", seed])
            assert exc.value.code == 2, seed
            err = capsys.readouterr().err
            assert err.splitlines()[-1].startswith("fncc-exp: error:"), seed
            assert "--seed" in err.splitlines()[-1], seed

    def test_flow_backend_rejected_before_any_cell(self, capsys, monkeypatch):
        # The all-fluid tier has no CC dynamics, so its per-CC rows were
        # identical; it is no --backend choice.
        from repro.experiments import runner

        ran = []
        monkeypatch.setattr(runner, "_experiment_main",
                            lambda name: lambda **kw: ran.append(name))
        with pytest.raises(SystemExit) as exc:
            runner.main(["fig14", "--backend", "flow"])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("fncc-exp: error:") and "--backend" in last, last
        assert ran == []

    def test_trace_into_a_missing_directory_rejected_before_any_cell(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.experiments import runner

        ran = []
        monkeypatch.setattr(runner, "_experiment_main",
                            lambda name: lambda **kw: ran.append(name))
        path = tmp_path / "missing" / "t.json"
        with pytest.raises(SystemExit) as exc:
            runner.main(["fig14", "--quick", "--trace", str(path)])
        assert exc.value.code == 2
        assert f"--trace: directory {path.parent} does not exist" in capsys.readouterr().err
        assert ran == []
        # An existing directory, or a figure that ignores --trace, runs.
        assert runner.main(["fig14", "--quick", "--trace", str(tmp_path / "t.json")]) == 0
        assert runner.main(["fig1a", "--trace", str(path)]) == 0
        assert ran == ["fig14", "fig1a"]
