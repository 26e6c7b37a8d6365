"""Workload generators: Poisson load calibration and the canned patterns."""

import pytest

from repro.sim.rng import SeedSequenceFactory
from repro.traffic.cdf import PiecewiseCdf
from repro.traffic.generator import (
    PoissonWorkload,
    incast_flows,
    permutation_flows,
    staggered_elephants,
)
from repro.units import SEC, us

UNIFORM = PiecewiseCdf([(10_000, 0.0), (20_000, 1.0)])


class TestPoisson:
    def make(self, load=0.5, n_hosts=8, seed=1):
        return PoissonWorkload(
            n_hosts=n_hosts,
            host_rate_gbps=100.0,
            cdf=UNIFORM,
            load=load,
            seeds=SeedSequenceFactory(seed),
        )

    def test_arrival_rate_matches_load(self):
        w = self.make(load=0.5, n_hosts=8)
        # 0.5 * 8 hosts * 100 Gb/s / 8 bits / mean 15 KB.
        expected = 0.5 * 8 * 100e9 / 8 / 15_000
        assert w.lambda_flows_per_sec == pytest.approx(expected, rel=0.01)

    def test_generated_load_empirical(self):
        w = self.make(load=0.3, n_hosts=4)
        flows = w.generate(4000)
        span_s = (flows[-1].start_ps - flows[0].start_ps) / SEC
        offered = sum(f.size_bytes for f in flows) * 8 / span_s  # bits/s
        capacity = 4 * 100e9
        assert offered / capacity == pytest.approx(0.3, rel=0.1)

    def test_endpoints_distinct_and_in_range(self):
        flows = self.make().generate(500)
        for f in flows:
            assert f.src != f.dst
            assert 0 <= f.src < 8 and 0 <= f.dst < 8

    def test_start_times_monotonic(self):
        flows = self.make().generate(100)
        starts = [f.start_ps for f in flows]
        assert starts == sorted(starts)

    def test_deterministic_in_seed(self):
        a = self.make(seed=5).generate(50)
        b = self.make(seed=5).generate(50)
        assert [(f.src, f.dst, f.size_bytes, f.start_ps) for f in a] == [
            (f.src, f.dst, f.size_bytes, f.start_ps) for f in b
        ]

    def test_different_seeds_differ(self):
        a = self.make(seed=1).generate(50)
        b = self.make(seed=2).generate(50)
        assert [f.size_bytes for f in a] != [f.size_bytes for f in b]

    def test_flow_ids_sequential_from_first(self):
        w = PoissonWorkload(
            n_hosts=4,
            host_rate_gbps=100.0,
            cdf=UNIFORM,
            load=0.5,
            seeds=SeedSequenceFactory(1),
        )
        flows = w.generate(10)
        assert [f.flow_id for f in flows] == list(range(10))

    def test_load_bounds(self):
        with pytest.raises(ValueError):
            self.make(load=0.0)
        with pytest.raises(ValueError):
            self.make(load=1.0)


class TestPatterns:
    def test_staggered_elephants_spacing(self):
        flows = staggered_elephants([0, 1, 2], 9, 1_000_000, stagger_ps=us(300))
        assert [f.start_ps for f in flows] == [0, us(300), us(600)]
        assert all(f.dst == 9 for f in flows)

    def test_incast_simultaneous(self):
        flows = incast_flows(range(8), 9, 50_000)
        assert len(flows) == 8
        assert all(f.start_ps == 0 for f in flows)
        assert all(f.dst == 9 for f in flows)

    def test_permutation_is_derangement(self):
        flows = permutation_flows(range(10), 1000, SeedSequenceFactory(3))
        assert len(flows) == 10
        assert all(f.src != f.dst for f in flows)
        assert sorted(f.dst for f in flows) == list(range(10))

    def test_permutation_deterministic(self):
        a = permutation_flows(range(10), 1000, SeedSequenceFactory(3))
        b = permutation_flows(range(10), 1000, SeedSequenceFactory(3))
        assert [f.dst for f in a] == [f.dst for f in b]

    def test_permutation_needs_two(self):
        with pytest.raises(ValueError):
            permutation_flows([0], 1000, SeedSequenceFactory(1))
