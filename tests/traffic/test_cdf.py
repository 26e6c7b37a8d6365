"""Piecewise CDF sampling and moments."""

import random
import statistics

import pytest

from repro.traffic.cdf import PiecewiseCdf
from repro.traffic.distributions import FB_HADOOP_CDF, WEBSEARCH_CDF, fb_hadoop_cdf, websearch_cdf


class TestValidation:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            PiecewiseCdf([(100, 1.0)])

    def test_sizes_strictly_increasing(self):
        with pytest.raises(ValueError):
            PiecewiseCdf([(100, 0.0), (100, 1.0)])

    def test_probs_nondecreasing(self):
        with pytest.raises(ValueError):
            PiecewiseCdf([(1, 0.5), (2, 0.2), (3, 1.0)])

    def test_must_end_at_one(self):
        with pytest.raises(ValueError):
            PiecewiseCdf([(1, 0.0), (2, 0.9)])

    def test_scale_positive(self):
        with pytest.raises(ValueError):
            PiecewiseCdf([(1, 0.0), (2, 1.0)], scale=0)


class TestSampling:
    CDF = [(1000, 0.0), (2000, 0.5), (10_000, 1.0)]

    def test_samples_within_support(self):
        cdf = PiecewiseCdf(self.CDF)
        rng = random.Random(1)
        for _ in range(500):
            assert 1000 <= cdf.sample(rng) <= 10_000

    def test_scale_multiplies_sizes(self):
        cdf = PiecewiseCdf(self.CDF, scale=0.1)
        rng = random.Random(1)
        assert max(cdf.sample(rng) for _ in range(500)) <= 1000
        assert cdf.mean() == pytest.approx(PiecewiseCdf(self.CDF).mean() * 0.1)

    def test_empirical_median_matches_distribution(self):
        cdf = PiecewiseCdf(self.CDF)
        rng = random.Random(1)
        xs = [cdf.sample(rng) for _ in range(20_000)]
        assert abs(statistics.median(xs) - 2000) / 2000 < 0.05

    def test_empirical_mean_matches_analytic(self):
        cdf = PiecewiseCdf(self.CDF)
        rng = random.Random(2)
        xs = [cdf.sample(rng) for _ in range(50_000)]
        assert abs(statistics.fmean(xs) - cdf.mean()) / cdf.mean() < 0.03

    def test_deterministic_given_rng(self):
        cdf = PiecewiseCdf(self.CDF)
        a = [cdf.sample(random.Random(7)) for _ in range(1)]
        b = [cdf.sample(random.Random(7)) for _ in range(1)]
        assert a == b


class TestPaperDistributions:
    def test_websearch_breakpoints_match_fig14_bins(self):
        from repro.metrics.fct import SIZE_BINS_WEBSEARCH

        sizes = [s for s, _ in WEBSEARCH_CDF]
        for b in SIZE_BINS_WEBSEARCH:
            assert b in sizes

    def test_hadoop_breakpoints_match_fig15_bins(self):
        from repro.metrics.fct import SIZE_BINS_HADOOP

        sizes = [s for s, _ in FB_HADOOP_CDF]
        for b in SIZE_BINS_HADOOP:
            assert b in sizes

    def test_websearch_mean_is_mb_scale(self):
        m = websearch_cdf().mean()
        assert 1e6 < m < 4e6  # the DCTCP websearch mean is ~1.6-2.5 MB

    def test_hadoop_mostly_small(self):
        cdf = fb_hadoop_cdf()
        at_10kb = cdf.probs[cdf.sizes.index(10_000)]
        assert at_10kb >= 0.8  # 80% of flows <= 10 KB

    def test_scaled_factories(self):
        assert websearch_cdf(scale=0.1).mean() == pytest.approx(
            websearch_cdf().mean() * 0.1
        )
