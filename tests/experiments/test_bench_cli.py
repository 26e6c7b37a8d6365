"""tools/bench.py regression gate: ``--check`` edge cases and the quick
smoke set's coverage of the pause regime."""

import importlib.util
import json
import os
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "bench_cli", REPO_ROOT / "tools" / "bench.py"
)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def entry(label, jobs=None, sanitize=None, **walls):
    e = {
        "label": label,
        "git_rev": "deadbee",
        "scenarios": {name: {"wall_s": w, "wall_min_s": w} for name, w in walls.items()},
    }
    if jobs is not None:
        e["jobs"] = jobs
    if sanitize is not None:
        e["sanitize"] = sanitize
    return e


class TestCheckRegression:
    def test_empty_trajectory_is_clean_noop(self, capsys):
        assert bench.check_regression([]) == 0
        assert "empty" in capsys.readouterr().out

    def test_single_entry_is_clean_noop(self, capsys):
        assert bench.check_regression([entry("only", fig9_micro=0.2)]) == 0
        assert "one trajectory entry" in capsys.readouterr().out

    def test_no_shared_scenarios_fails_loudly(self, capsys):
        t = [entry("a", fig9_micro=0.2), entry("b", lbmatrix=1.0)]
        assert bench.check_regression(t) == 2
        assert "share no scenarios" in capsys.readouterr().out

    def test_missing_scenarios_key_treated_as_no_overlap(self, capsys):
        t = [{"label": "a"}, entry("b", fig9_micro=0.2)]
        assert bench.check_regression(t) == 2
        assert "share no scenarios" in capsys.readouterr().out

    def test_regression_beyond_threshold_fails(self, capsys):
        t = [entry("old", fig9_micro=0.2), entry("new", fig9_micro=0.3)]
        assert bench.check_regression(t, threshold=0.15) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_within_threshold_passes(self):
        t = [entry("old", fig9_micro=0.2), entry("new", fig9_micro=0.22)]
        assert bench.check_regression(t, threshold=0.15) == 0

    def test_improvement_passes(self):
        t = [entry("old", pause_storm=2.0), entry("new", pause_storm=0.2)]
        assert bench.check_regression(t) == 0

    def test_only_shared_scenarios_compared(self):
        # A --quick entry after a full entry: the quick subset gates, the
        # rest is ignored rather than crashing or vacuously failing.
        t = [
            entry("full", fig9_micro=0.2, fig14_websearch=1.2),
            entry("quick", fig9_micro=0.21, pause_storm=0.3),
        ]
        assert bench.check_regression(t) == 0

    def test_main_check_with_missing_file(self, tmp_path):
        assert bench.main(["--check", "--out", str(tmp_path / "missing.json")]) == 0

    def test_main_check_propagates_failure(self, tmp_path):
        out = tmp_path / "traj.json"
        out.write_text(
            json.dumps([entry("old", fig9_micro=0.2), entry("new", fig9_micro=0.4)])
        )
        assert bench.main(["--check", "--out", str(out)]) == 1


class TestJobsProvenance:
    """--check only compares entries measured at the same worker count: a
    1-job baseline vs an N-job entry is parallelism, not a regression."""

    def test_mismatched_jobs_not_compared(self, capsys):
        # The 4-job sweep entry is 2x faster than the serial one — that
        # must not read as (or mask) anything; there is no 4-job
        # predecessor, so the gate is a clean no-op.
        t = [entry("serial", jobs=1, sweep=4.0), entry("par", jobs=4, sweep=2.0)]
        assert bench.check_regression(t) == 0
        assert "no previous entry measured with jobs=4" in capsys.readouterr().out

    def test_matching_jobs_found_across_mixed_history(self, capsys):
        # newest jobs=1 must skip the intervening jobs=4 entry and gate
        # against the older jobs=1 entry — which here is a regression.
        t = [
            entry("old-serial", jobs=1, fig9_micro=0.2),
            entry("par", jobs=4, fig9_micro=0.05),
            entry("new-serial", jobs=1, fig9_micro=0.4),
        ]
        assert bench.check_regression(t) == 1
        out = capsys.readouterr().out
        assert "old-serial" in out and "FAIL" in out

    def test_missing_jobs_key_means_serial(self):
        # Pre-provenance entries (no "jobs" key) were all serial: they
        # are comparable with explicit jobs=1 entries.
        t = [entry("legacy", fig9_micro=0.2), entry("new", jobs=1, fig9_micro=0.21)]
        assert bench.check_regression(t) == 0
        assert bench.entry_jobs(t[0]) == 1

    def test_same_jobs_no_shared_scenarios_still_loud(self, capsys):
        t = [
            entry("a", jobs=2, fig9_micro=0.2),
            entry("skip", jobs=1, sweep=1.0),
            entry("b", jobs=2, lbmatrix=1.0),
        ]
        assert bench.check_regression(t) == 2
        assert "share no scenarios" in capsys.readouterr().out

    def test_bad_jobs_rejected_at_cli(self):
        import pytest

        with pytest.raises(SystemExit):
            bench.main(["--jobs", "0", "--no-write"])

    def test_jobs_tag_dropped_when_no_jobs_aware_scenario(self, tmp_path, capsys):
        # --jobs on a jobs-oblivious scenario changes nothing, so the
        # entry must record jobs=1 — otherwise --check would match it
        # against unrelated jobs=4 entries (or never gate it at all).
        out = tmp_path / "traj.json"
        assert (
            bench.main(
                ["--scenario", "fig9_micro", "--repeats", "1", "--jobs", "4",
                 "--out", str(out)]
            )
            == 0
        )
        assert "no effect" in capsys.readouterr().out
        (entry,) = json.loads(out.read_text())
        assert entry["jobs"] == 1
        assert entry["cpu_count"] >= 1


class TestSanitizeProvenance:
    """--check partitions by sanitize mode exactly like jobs/backend:
    a sanitized wall time is debug instrumentation, not a regression."""

    def test_mismatched_sanitize_not_compared(self, capsys):
        t = [
            entry("plain", pause_storm=0.2),
            entry("sanitized", sanitize="pool,tie", pause_storm=0.3),
        ]
        assert bench.check_regression(t) == 0
        out = capsys.readouterr().out
        assert "no previous entry measured with" in out and "sanitize=pool,tie" in out

    def test_matching_sanitize_found_across_mixed_history(self, capsys):
        # newest sanitize=off must skip the sanitized entry and gate
        # against the older unsanitized one — a genuine regression here.
        t = [
            entry("old", pause_storm=0.2),
            entry("debug", sanitize="pool,tie", pause_storm=0.5),
            entry("new", sanitize="off", pause_storm=0.4),
        ]
        assert bench.check_regression(t) == 1
        out = capsys.readouterr().out
        assert "old" in out and "FAIL" in out

    def test_sanitized_pair_gates_normally(self):
        t = [
            entry("debug-a", sanitize="pool,tie", pause_storm=0.3),
            entry("debug-b", sanitize="pool,tie", pause_storm=0.31),
        ]
        assert bench.check_regression(t) == 0

    def test_missing_sanitize_key_means_off(self):
        assert bench.entry_sanitize(entry("legacy", fig9_micro=0.2)) == "off"
        t = [
            entry("legacy", fig9_micro=0.2),
            entry("new", sanitize="off", fig9_micro=0.21),
        ]
        assert bench.check_regression(t) == 0

    def test_sanitize_spec_normalized_for_comparison(self):
        # "tie,pool" and "pool, tie" are the same provenance partition.
        assert bench.norm_sanitize("tie,pool") == "pool,tie"
        assert bench.norm_sanitize(" pool , tie ") == "pool,tie"
        assert bench.norm_sanitize("off") == "off"
        assert bench.norm_sanitize("") == "off"
        assert bench.entry_sanitize(entry("x", sanitize="tie,pool", a=1.0)) == "pool,tie"

    def test_bad_sanitize_rejected_at_cli(self):
        import pytest

        with pytest.raises(SystemExit):
            bench.main(["--sanitize", "typo", "--no-write"])

    def test_entry_records_sanitize_provenance(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        out = tmp_path / "traj.json"
        assert (
            bench.main(
                ["--scenario", "fig9_micro", "--repeats", "1",
                 "--sanitize", "tie,pool", "--out", str(out)]
            )
            == 0
        )
        (e,) = json.loads(out.read_text())
        assert e["sanitize"] == "pool,tie"

    def test_sanitize_env_not_leaked_past_main(self, monkeypatch):
        # main() exports REPRO_SANITIZE so spawned workers inherit the
        # mode, but must restore the caller's env on exit — a leaked
        # "pool" mode would make every later Simulator in this process
        # poison released packets (caught live: a tap test reading its
        # captured frames post-run started raising UseAfterReleaseError).
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert (
            bench.main(
                ["--scenario", "fig9_micro", "--repeats", "1",
                 "--sanitize", "tie,pool", "--no-write"]
            )
            == 0
        )
        assert "REPRO_SANITIZE" not in os.environ

    def test_sanitize_defaults_from_environment(self, tmp_path, monkeypatch):
        # REPRO_SANITIZE is the spawn-worker propagation channel; the flag
        # default reads it so an env-configured CI job records honest
        # provenance without repeating itself.
        monkeypatch.setenv("REPRO_SANITIZE", "tie")
        out = tmp_path / "traj.json"
        assert (
            bench.main(
                ["--scenario", "fig9_micro", "--repeats", "1", "--out", str(out)]
            )
            == 0
        )
        (e,) = json.loads(out.read_text())
        assert e["sanitize"] == "tie"
        monkeypatch.delenv("REPRO_SANITIZE")
        out2 = tmp_path / "traj2.json"
        assert (
            bench.main(
                ["--scenario", "fig9_micro", "--repeats", "1", "--out", str(out2)]
            )
            == 0
        )
        (e2,) = json.loads(out2.read_text())
        assert e2["sanitize"] == "off"


class TestQuickSmokeSet:
    def test_pause_storm_is_gated_by_quick_smoke(self):
        # CI runs --quick twice then --check: the pause-transition regime
        # must be in that loop so an O(backlog) regression cannot slip
        # through a pause-free smoke set.
        assert "pause_storm" in bench.QUICK_SCENARIOS
        assert set(bench.QUICK_SCENARIOS) <= set(bench.SCENARIOS)

    def test_sweep_scenario_registered_and_jobs_aware(self):
        from benchmarks.perf_harness import JOBS_SCENARIOS, SCENARIOS

        assert "sweep" in SCENARIOS
        assert "sweep" in JOBS_SCENARIOS
        assert JOBS_SCENARIOS <= set(SCENARIOS)
