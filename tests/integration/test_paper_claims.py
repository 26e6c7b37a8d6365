"""The paper's qualitative claims, asserted as regression tests.

These assert *shape*, not absolute numbers (our substrate is a Python
simulator, not the authors' OMNeT++ testbed): who wins, orderings, and
directions of effects.  DESIGN.md §1 records the scale substitutions the
magnitudes are subject to.
"""

import pytest

from repro.experiments.common import run_microbench
from repro.experiments.fig9_microbench import convergence_time_us, response_time_us
from repro.units import KB, us

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def micro100():
    return {
        cc: run_microbench(cc, link_rate_gbps=100.0, duration_us=700.0, seed=1)
        for cc in ("fncc", "hpcc", "dcqcn", "rocc")
    }


class TestFig9QueueOrdering:
    def test_fncc_shallowest_queue(self, micro100):
        fncc = micro100["fncc"].peak_queue_bytes
        assert fncc < micro100["hpcc"].peak_queue_bytes
        assert fncc < micro100["dcqcn"].peak_queue_bytes
        assert fncc < micro100["rocc"].peak_queue_bytes

    def test_hpcc_beats_dcqcn(self, micro100):
        assert micro100["hpcc"].peak_queue_bytes < micro100["dcqcn"].peak_queue_bytes


class TestFig9ResponseOrdering:
    def test_fncc_first_to_slow_down(self, micro100):
        r = {cc: response_time_us(m) for cc, m in micro100.items()}
        assert r["fncc"] is not None and r["hpcc"] is not None
        assert r["fncc"] < r["hpcc"], "sub-RTT notification must beat HPCC"
        assert r["hpcc"] < r["dcqcn"], "INT-driven HPCC must beat DCQCN"

    def test_rocc_slowest_or_unresponsive(self, micro100):
        r_rocc = response_time_us(micro100["rocc"])
        r_dcqcn = response_time_us(micro100["dcqcn"])
        assert r_rocc is None or r_rocc >= r_dcqcn

    def test_fncc_converges_to_fair_rate(self, micro100):
        conv = convergence_time_us(micro100["fncc"])
        assert conv is not None

    def test_fncc_converges_promptly(self, micro100):
        # FNCC dips harder first (earlier notification) and settles into the
        # fair band within ~8 RTTs of the join; HPCC lands in the same
        # window, so assert promptness rather than a strict ordering that
        # the band-hold metric cannot resolve.
        c_f = convergence_time_us(micro100["fncc"])
        assert c_f is not None
        assert c_f <= 300.0 + 100.0  # joined at 300 us; ~8 RTTs of slack


class TestFig9Utilization:
    def test_fncc_keeps_bottleneck_busy(self, micro100):
        assert micro100["fncc"].utilization.mean_after(us(100)) > 0.85

    def test_fncc_at_least_hpcc_level(self, micro100):
        u_f = micro100["fncc"].utilization.mean_after(us(100))
        u_h = micro100["hpcc"].utilization.mean_after(us(100))
        assert u_f >= u_h - 0.05


class TestRateRobustness:
    """Figs. 1/9: the FNCC advantage persists at 200 and 400 Gb/s."""

    @pytest.mark.parametrize("rate", [200.0, 400.0])
    def test_fncc_shallowest_at_high_rates(self, rate):
        peaks = {}
        for cc in ("fncc", "hpcc", "dcqcn"):
            peaks[cc] = run_microbench(
                cc, link_rate_gbps=rate, duration_us=600.0, seed=1
            ).peak_queue_bytes
        assert peaks["fncc"] < peaks["hpcc"] < peaks["dcqcn"]


class TestFig3PauseFrames:
    def test_fncc_fewest_pauses_at_400g(self):
        counts = {}
        for cc in ("fncc", "hpcc", "dcqcn"):
            counts[cc] = run_microbench(
                cc, link_rate_gbps=400.0, duration_us=600.0, seed=1
            ).pause_frames
        assert counts["fncc"] <= counts["hpcc"]
        assert counts["fncc"] <= counts["dcqcn"]
        # The scenario is severe enough that somebody pauses.
        assert max(counts.values()) > 0


class TestFig13Lhcs:
    def test_lhcs_cuts_last_hop_queue(self):
        from repro.experiments.fig13_congestion_location import run_location

        with_ = run_location("fncc", "last", duration_us=600.0)
        without = run_location("fncc", "last", duration_us=600.0, lhcs_enabled=False)
        hpcc = run_location("hpcc", "last", duration_us=600.0)
        assert with_.peak_queue_bytes < hpcc.peak_queue_bytes
        assert with_.peak_queue_bytes <= without.peak_queue_bytes

    def test_fncc_wins_at_every_location(self):
        from repro.experiments.fig13_congestion_location import run_location

        for loc in ("first", "middle", "last"):
            fncc = run_location("fncc", loc, duration_us=600.0)
            hpcc = run_location("hpcc", loc, duration_us=600.0)
            assert fncc.peak_queue_bytes < hpcc.peak_queue_bytes, loc
