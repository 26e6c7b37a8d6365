"""ProgressReporter: heartbeat format, rate limiting, and the wired-in
drive-loop path."""

import io

from repro.experiments.fct_experiment import run_fct_experiment
from repro.obs import MetricsRegistry, ProgressReporter, RunObservability
from repro.units import us


class TestHeartbeat:
    def test_forced_tick_prints_rate_and_eta(self, sim):
        out = io.StringIO()
        prog = ProgressReporter(label="cell", stream=out)
        sim.schedule(us(10), lambda arg: None)
        sim.run(until=us(20))
        assert prog.tick(
            sim, completed=3, total=10, horizon_ps=us(100), force=True
        )
        line = out.getvalue()
        assert line.startswith("[progress] cell ")
        assert "events/s=" in line
        assert "eta=" in line
        assert "flows=3/10" in line
        # sim=now/horizon with a percent readout.
        assert "sim=" in line and "%" in line
        assert prog.heartbeats == 1

    def test_wall_clock_rate_limited(self, sim):
        out = io.StringIO()
        prog = ProgressReporter(stream=out, interval_s=3600.0)
        assert not prog.tick(sim), "within the interval: no line"
        assert prog.tick(sim, force=True)
        assert not prog.tick(sim)
        assert prog.heartbeats == 1
        assert out.getvalue().count("\n") == 1

    def test_zero_interval_prints_every_tick(self, sim):
        out = io.StringIO()
        prog = ProgressReporter(stream=out, interval_s=0.0)
        for _ in range(3):
            prog.tick(sim)
        assert prog.heartbeats == 3

    def test_heartbeat_without_horizon_or_flows(self, sim):
        out = io.StringIO()
        prog = ProgressReporter(stream=out)
        prog.tick(sim, force=True)
        line = out.getvalue()
        assert "sim=0.00ms" in line
        assert "eta=?" in line  # nothing to extrapolate from


    def test_rate_and_eta_formats(self):
        from repro.obs.progress import _fmt_eta, _fmt_rate

        assert [_fmt_rate(n) for n in (0, 999.4, 1500)] == ["0", "999", "1.5k"]
        etas = (None, float("nan"), -1.0, 12.34, 90.0)
        assert [_fmt_eta(s) for s in etas] == ["?", "?", "?", "12.3s", "1.5m"]


class TestPhaseAndFinish:
    def test_finish_summarizes_run(self, sim):
        out = io.StringIO()
        prog = ProgressReporter(stream=out)
        sim.schedule(us(1), lambda arg: None)
        sim.run(until=us(5))
        prog.finish(sim, completed=10, total=10)
        line = out.getvalue()
        assert "done" in line
        assert "flows=10/10" in line
        assert "events/s=" in line
        assert "wall=" in line


class TestDriveLoopWiring:
    def test_fct_run_emits_at_least_one_heartbeat(self):
        """drive_fct forces the first tick, so even a quick run heartbeats
        with the horizon and flow totals filled in."""
        out = io.StringIO()
        obs = RunObservability(
            registry=MetricsRegistry(),
            progress=ProgressReporter(label="fncc", stream=out),
        )
        run_fct_experiment(
            "fncc", workload="websearch", n_flows=20, seed=2,
            max_horizon_ms=30.0, obs=obs,
        )
        obs.detach()
        text = out.getvalue()
        assert obs.progress.heartbeats >= 1
        beats = [l for l in text.splitlines() if "events/s=" in l and "eta=" in l]
        assert beats, text
        assert "/20" in beats[0]  # flow total wired through
        assert "/30.00ms" in beats[0]  # horizon wired through
        assert "done" in text.splitlines()[-1]
