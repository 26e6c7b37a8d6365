"""FlightRecorder: crash-state dumps on injected failures."""

import json

import pytest

from repro.exec import SweepError
from repro.hybrid.fluid import FluidStallError
from repro.metrics.monitors import QueueSampler
from repro.obs import (
    EventTracer,
    FlightRecorder,
    MetricsRegistry,
    RunObservability,
)
from repro.units import us


def loaded_dumbbell(sim, obs=None):
    from helpers import make_dumbbell
    from repro.experiments.common import launch_flows
    from repro.traffic.generator import staggered_elephants
    from repro.units import MB

    topo, env = make_dumbbell(sim, cc="fncc")
    if obs is not None:
        # Attach before launch so the flow-lifecycle hooks see the starts.
        obs.attach(sim, topo)
    flows = staggered_elephants(
        [h.host_id for h in topo.hosts[:2]], topo.hosts[-1].host_id, 5 * MB, us(50)
    )
    launch_flows(topo, flows, env)
    return topo


class TestGuardDump:
    def test_fluid_stall_dumps_state(self, sim, tmp_path):
        """The acceptance-criterion path: an injected FluidStallError inside
        the guard produces a diagnosis file with exception, engine state,
        trace tail and registry snapshot — then re-raises."""
        path = tmp_path / "fr.json"
        obs = RunObservability(
            registry=MetricsRegistry(),
            tracer=EventTracer(),
            flight=FlightRecorder(path=str(path)),
        )
        topo = loaded_dumbbell(sim, obs=obs)
        with pytest.raises(FluidStallError):
            with obs.guard(sim=sim, topo=topo):
                sim.run(until=us(30))
                raise FluidStallError("all active flows stalled at t=30us")
        assert obs.flight.dumped_path == str(path)
        doc = json.loads(path.read_text())
        assert doc["exception"]["type"] == "FluidStallError"
        assert "stalled" in doc["exception"]["message"]
        assert "FluidStallError" in doc["exception"]["traceback"]
        eng = doc["engine"]
        assert eng["now_ps"] == sim.now and eng["now_ps"] > 0
        assert eng["events_dispatched"] > 0
        assert "queue_len" in eng
        # Port/flow state rides along, busiest first and bounded.
        assert doc["ports"] and doc["ports"][0]["tx_packets"] >= 0
        assert {"node", "port", "qbytes", "drops"} <= set(doc["ports"][0])
        assert isinstance(doc["flows"], list)
        assert doc["trace_tail"], "trace ring tail must be captured"
        assert doc["trace_counts"]["flow"] > 0
        assert doc["registry"]["counters"]["engine.events_dispatched"] > 0

    def test_dump_records_pause_state_and_acked_bytes(self, sim, tmp_path):
        """The state that explains a wedged run: which ports sit XOFF'd and
        how far each unfinished flow got."""
        topo = loaded_dumbbell(sim)
        path = tmp_path / "fr.json"
        flight = FlightRecorder(path=str(path))
        with pytest.raises(RuntimeError):
            with flight.guard(sim=sim, topo=topo):
                sim.run(until=us(30))
                topo.switches[0].ports[0].pause(0)
                raise RuntimeError("wedged")
        doc = json.loads(path.read_text())
        paused = {(r["node"], r["port"]): r["paused"] for r in doc["ports"]}
        assert paused.pop((topo.switches[0].name, 0)) is True
        assert paused and set(paused.values()) == {False}
        senders = {
            fid: qp for h in topo.hosts for fid, qp in h.senders.items()
        }
        assert doc["flows"]
        for row in doc["flows"]:
            assert row["acked"] == senders[row["flow"]].snd_una
        assert any(0 < row["acked"] < row["size"] for row in doc["flows"])

    def test_sweep_error_carries_worker_traceback(self, sim, tmp_path):
        path = tmp_path / "fr.json"
        flight = FlightRecorder(path=str(path))
        err = SweepError(
            "worker died",
            key=("fncc", 7),
            worker_traceback="Traceback ...\nValueError: boom\n",
        )
        with pytest.raises(SweepError):
            with flight.guard(sim=sim):
                raise err
        doc = json.loads(path.read_text())
        assert doc["exception"]["type"] == "SweepError"
        assert "ValueError: boom" in doc["exception"]["worker_traceback"]
        assert doc["exception"]["sweep_key"] == repr(("fncc", 7))

    def test_crash_dump_disarms_registered_samplers(self, sim, tmp_path):
        """A dump must stop the run's samplers so the crashed simulator is
        not left with armed Periodics."""
        topo = loaded_dumbbell(sim)
        mon = QueueSampler(sim, topo.switches[0].ports[0], interval_ps=us(1))
        flight = FlightRecorder(path=str(tmp_path / "fr.json"))
        with pytest.raises(RuntimeError):
            with flight.guard(sim=sim, topo=topo):
                sim.run(until=us(10))
                raise RuntimeError("injected")
        n = len(mon.series.times)
        sim.run(until=us(50))
        assert len(mon.series.times) == n, "sampler kept firing after the dump"

    def test_no_dump_on_clean_exit(self, sim, tmp_path):
        path = tmp_path / "fr.json"
        flight = FlightRecorder(path=str(path))
        with flight.guard(sim=sim):
            sim.run(until=us(1))
        assert flight.dumped_path is None
        assert not path.exists()


class TestDumpRobustness:
    def test_dump_never_raises(self, tmp_path, capsys):
        """A recorder that dies while recording would mask the real
        failure — dump() swallows its own errors."""
        flight = FlightRecorder(path=str(tmp_path / "no" / "such" / "dir" / "f.json"))
        assert flight.dump(RuntimeError("primary failure")) == ""
        assert flight.dumped_path is None
        assert "flight recorder failed" in capsys.readouterr().err

    def test_dump_without_exception_or_bindings(self, tmp_path):
        path = tmp_path / "fr.json"
        flight = FlightRecorder(path=str(path))
        assert flight.dump() == str(path)
        doc = json.loads(path.read_text())
        assert doc["exception"]["type"] is None
        assert "engine" not in doc  # never bound to a sim


class TestFaultsSection:
    def test_armed_run_dumps_faults_section(self, sim, tmp_path):
        """A run with an armed injector + watchdog dumps a ``faults``
        section: plan name, counters, event timeline, active fault state,
        and per-switch watchdog state (DESIGN.md §10)."""
        from repro.faults import FaultInjector, FaultPlan
        from repro.net.switch import PfcWatchdogConfig, arm_watchdog

        topo = loaded_dumbbell(sim)
        plan = (
            FaultPlan("crashdump")
            .link_down("sw0", "sw1", at_ps=us(5))
            .gray_loss("sw1", "sw2", start_ps=us(1), end_ps=us(40), prob=0.1)
        )
        FaultInjector(plan).arm(sim, topo, seeds=topo.seeds)
        wd = arm_watchdog(topo.switches[0], PfcWatchdogConfig(detect_ps=us(10)))
        path = tmp_path / "fr.json"
        flight = FlightRecorder(path=str(path))
        with pytest.raises(RuntimeError):
            with flight.guard(sim=sim, topo=topo):
                sim.run(until=us(30))
                raise RuntimeError("mid-outage crash")
        doc = json.loads(path.read_text())
        faults = doc["faults"]
        assert faults["plan"] == "crashdump"
        assert faults["specs"] == 2
        assert faults["counters"]["events"] > 0
        assert any(ev["event"] == "link_down" for ev in faults["timeline"])
        assert ["sw0", "sw1"] in faults["active"]["dead_links"]
        wd_rows = faults["watchdogs"]
        assert [row["switch"] for row in wd_rows] == [topo.switches[0].name]
        assert wd_rows[0] == wd.state()

    def test_healthy_run_has_no_faults_section(self, sim, tmp_path):
        """faults=None runs dump the pre-existing schema: no key at all."""
        topo = loaded_dumbbell(sim)
        path = tmp_path / "fr.json"
        flight = FlightRecorder(path=str(path))
        with pytest.raises(RuntimeError):
            with flight.guard(sim=sim, topo=topo):
                sim.run(until=us(30))
                raise RuntimeError("healthy crash")
        doc = json.loads(path.read_text())
        assert "faults" not in doc
