"""EventTracer ring semantics and the Chrome trace-event export/validate
round trip."""

import json

import pytest

from repro.obs import EventTracer, MetricsRegistry
from repro.obs.export import (
    REQUIRED_REGISTRY_COUNTERS,
    export_chrome_trace,
    validate_chrome_trace,
)


class TestTracerCore:
    def test_category_filter(self):
        tr = EventTracer(categories=("flow",))
        tr.emit("flow", "a", 10)
        tr.emit("pfc", "b", 20)  # disabled: dropped silently
        assert len(tr.events) == 1
        assert tr.events[0].name == "a"
        assert tr.enabled("flow") and not tr.enabled("pfc")

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            EventTracer(categories=("nope",))

    def test_ring_eviction_keeps_counts(self):
        tr = EventTracer(categories=("flow",), capacity=8)
        for i in range(20):
            tr.emit("flow", f"e{i}", i)
        assert len(tr.events) == 8
        assert tr.counts["flow"] == 20
        assert tr.dropped == 12
        # tail() is the newest slice.
        assert [e.name for e in tr.tail(3)] == ["e17", "e18", "e19"]

    def test_complete_event_round_trip(self):
        tr = EventTracer()
        tr.emit("flow", "flow 1", 1_000_000, ph="X", dur_ps=2_000_000,
                args={"flow": 1})
        d = tr.events[0].to_dict()
        assert d["ph"] == "X" and d["dur_ps"] == 2_000_000


class TestChromeExport:
    def _traced(self):
        tr = EventTracer()
        tr.emit("flow", "flow_start", 5_000_000, args={"flow": 1})
        tr.emit("flow", "flow 1 (100B)", 5_000_000, ph="X", dur_ps=7_000_000)
        tr.emit("pfc", "pause", 6_000_000, args={"node": "s0"})
        return tr

    def test_export_and_validate(self, tmp_path):
        path = tmp_path / "t.json"
        export_chrome_trace(str(path), self._traced())
        info = validate_chrome_trace(str(path))
        assert info["events"] == 3
        assert info["categories"] == {"flow": 2, "pfc": 1}
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ns"
        # ts is microseconds in the trace-event format: 5e6 ps -> 5 us.
        data = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert data[0]["ts"] == 5.0
        x = [e for e in data if e["ph"] == "X"][0]
        assert x["dur"] == 7.0

    def test_multi_cell_export_with_registry(self, tmp_path):
        path = tmp_path / "t.json"
        reg = MetricsRegistry()
        for name in REQUIRED_REGISTRY_COUNTERS:
            reg.counter(name).inc()
        export_chrome_trace(
            str(path),
            [("fncc", self._traced()), ("hpcc", self._traced())],
            registry=reg.snapshot(),
        )
        info = validate_chrome_trace(str(path), require_registry=True)
        assert info["events"] == 6
        assert info["registry_counters"] >= len(REQUIRED_REGISTRY_COUNTERS)
        doc = json.loads(path.read_text())
        # One trace process per cell, named by its label.
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"fncc", "hpcc"}
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert len(pids) == 2

    def test_validate_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": [{"ph": "i"}]}))
        with pytest.raises(ValueError):
            validate_chrome_trace(str(path))

    def test_validate_requires_registry_when_asked(self, tmp_path):
        path = tmp_path / "t.json"
        export_chrome_trace(str(path), self._traced())  # no registry
        validate_chrome_trace(str(path))  # fine without the flag
        with pytest.raises(ValueError):
            validate_chrome_trace(str(path), require_registry=True)

    def test_cli_entry(self, tmp_path, capsys):
        from repro.obs.export import main

        path = tmp_path / "t.json"
        export_chrome_trace(str(path), self._traced())
        assert main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        assert main([str(path), "--require-registry"]) == 1
