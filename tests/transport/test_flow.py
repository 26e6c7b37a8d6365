"""Flow descriptors and completion records."""

import pytest

from repro.transport.flow import Flow, FlowRecord
from repro.units import us


class TestFlow:
    def test_valid_flow(self):
        f = Flow(1, 0, 2, 1000, start_ps=us(5))
        assert f.size_bytes == 1000
        assert f.start_ps == us(5)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Flow(0, 0, 1, 0)
        with pytest.raises(ValueError):
            Flow(0, 0, 1, -5)

    def test_rejects_self_flow(self):
        with pytest.raises(ValueError):
            Flow(0, 3, 3, 100)


class TestFlowRecord:
    def test_fct_is_finish_minus_start(self):
        f = Flow(0, 0, 1, 100, start_ps=us(10))
        rec = FlowRecord(f, finish_ps=us(25))
        assert rec.fct_ps == us(15)

    def test_slowdown(self):
        f = Flow(0, 0, 1, 100)
        rec = FlowRecord(f, finish_ps=us(30))
        rec.ideal_fct_ps = us(10)
        assert rec.slowdown == pytest.approx(3.0)

    def test_slowdown_requires_ideal(self):
        rec = FlowRecord(Flow(0, 0, 1, 100), finish_ps=us(30))
        with pytest.raises(ValueError):
            _ = rec.slowdown
