"""The §5.4.1 closed-form notification model."""

import pytest

from repro.analysis.notification import NotificationModel
from repro.units import ACK_SIZE, DEFAULT_MTU, serialization_ps, us


class TestModel:
    def test_gain_positive_everywhere(self):
        m = NotificationModel(5)
        assert all(g > 0 for g in [m.gain_ps(j) for j in range(1, m.n + 1)])

    def test_gain_decreases_toward_last_hop(self):
        """The paper's §5.4.1 conclusion: first > middle > last."""
        m = NotificationModel(3)
        gains = [m.gain_ps(j) for j in range(1, m.n + 1)]
        assert gains[0] > gains[1] > gains[2]

    def test_hpcc_delay_formula_first_hop(self):
        m = NotificationModel(3, rate_gbps=100.0, prop_delay_ps=us(1.5))
        s_d = serialization_ps(DEFAULT_MTU, 100.0)
        s_a = serialization_ps(ACK_SIZE, 100.0)
        expected = 3 * (s_d + us(1.5)) + 4 * (s_a + us(1.5))
        assert m.hpcc_delay_ps(1) == expected

    def test_fncc_delay_formula(self):
        m = NotificationModel(3, rate_gbps=100.0, prop_delay_ps=us(1.5))
        s_a = serialization_ps(ACK_SIZE, 100.0)
        assert m.fncc_delay_ps(1) == s_a + us(1.5)
        assert m.fncc_delay_ps(3) == 3 * (s_a + us(1.5))

    def test_fncc_always_sub_rtt(self):
        """Observation 1: FNCC's notification beats one full RTT."""
        m = NotificationModel(3)
        rtt_ish = m.hpcc_delay_ps(1)  # data to receiver + ACK back ~ RTT
        for hop in (1, 2, 3):
            assert m.fncc_delay_ps(hop) < rtt_ish

    def test_hpcc_delay_decreases_with_hop(self):
        # Congestion nearer the receiver has a shorter data leg.
        m = NotificationModel(4)
        delays = [m.hpcc_delay_ps(j) for j in (1, 2, 3, 4)]
        assert delays == sorted(delays, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            NotificationModel(0)
        m = NotificationModel(3)
        with pytest.raises(ValueError):
            m.gain_ps(0)
        with pytest.raises(ValueError):
            m.gain_ps(4)

    def test_rate_scales_serialization_component(self):
        slow = NotificationModel(3, rate_gbps=100.0, prop_delay_ps=0)
        fast = NotificationModel(3, rate_gbps=400.0, prop_delay_ps=0)
        assert fast.hpcc_delay_ps(1) * 4 == slow.hpcc_delay_ps(1)


class TestAgainstSimulation:
    def test_measured_gap_ordering_matches_theory(self):
        """Simulated HPCC-vs-FNCC response gaps follow the model's ordering
        (LHCS disabled to isolate pure notification latency)."""
        from repro.experiments.theory import measured_response_gap_us

        first = measured_response_gap_us("first", lhcs=False)
        last = measured_response_gap_us("last", lhcs=False)
        assert first is not None and last is not None
        assert first > last

    def test_lhcs_beats_pure_notification_on_last_hop(self):
        from repro.experiments.theory import measured_response_gap_us

        without = measured_response_gap_us("last", lhcs=False)
        with_ = measured_response_gap_us("last", lhcs=True)
        assert with_ >= without
