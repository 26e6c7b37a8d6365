"""Theory and paper-scale experiment modules."""

import pytest

from repro.experiments.paper_scale import run_flow_level, shape_correlation
from repro.experiments.theory import HOP_OF_LOCATION, run_theory


class TestTheoryExperiment:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_theory(duration_us=450.0)

    def test_covers_all_locations(self, rows):
        assert set(rows) == set(HOP_OF_LOCATION)

    def test_theory_gain_ordering(self, rows):
        assert (
            rows["first"]["theory_gain_us"]
            > rows["middle"]["theory_gain_us"]
            > rows["last"]["theory_gain_us"]
        )

    def test_measured_first_gain_exceeds_last(self, rows):
        assert rows["first"]["measured_gap_us"] > rows["last"]["measured_gap_us"]

    def test_lhcs_exceeds_pure_notification(self, rows):
        assert (
            rows["last"]["measured_gap_with_lhcs_us"]
            >= rows["last"]["measured_gap_us"]
        )


class TestPaperScale:
    def test_k8_flow_level_runs(self):
        table = run_flow_level(k=8, n_flows=300, seed=1)
        assert sum(table.row_counts().values()) + len(table.overflow) == 300

    def test_scaled_and_full_shapes_correlate(self):
        full = run_flow_level(k=4, n_flows=600, scale=1.0, seed=1)
        scaled = run_flow_level(k=4, n_flows=600, scale=0.1, seed=1)
        rho = shape_correlation(full, scaled)
        assert rho > 0.5, f"scaling destroyed the workload shape (rho={rho:.2f})"

    def test_higher_load_higher_slowdown(self):
        lo = run_flow_level(k=4, n_flows=400, load=0.3, seed=2)
        hi = run_flow_level(k=4, n_flows=400, load=0.8, seed=2)
        assert hi.aggregate("average") > lo.aggregate("average")
