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
            len(re.findall(r"s\.resume_received,\s*s\.max_qlen,\s*port\.train_frames", t))
            for t in sources.values()
        )
        assert rows == 1

    def test_fingerprint_tuple_lives_on_the_collector(self):
        for path, text in self._sources("experiments", "shard").items():
            assert "(r.flow.flow_id, r.fct_ps)" not in text, path

    def test_summary_twins_are_gone(self):
        gone = ("LbCellSummary", "FaultCellSummary", "MicrobenchSummary", "portstats_rows")
        for path, text in self._sources().items():
            for name in gone:
                assert name not in text, f"{path}: {name}"


class TestMicrobench:
    def test_quick_dumbbell_returns_series(self):
        r = quick_dumbbell("fncc", duration_us=120.0)
        assert len(r.queue) > 0
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
        from repro.experiments.fct_experiment import compare_ccs, format_panel

        res = compare_ccs(("fncc",), workload="hadoop", n_flows=20, seed=1)
        text = format_panel(res, "p95", "demo")
        assert "fncc" in text and "demo" in text


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
            (["--backend", "flow"], "does not take --backend; ignoring"),
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
