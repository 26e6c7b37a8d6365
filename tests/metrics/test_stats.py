"""Equivalence with numpy as the oracle: the pure-python reductions in
``repro.metrics.stats``, the CDF inversion and the integer ideal FCT must be
*bit-equal* to the numpy expressions they replaced (``==`` on floats, no
tolerance) — a figure's printed digits ride on it."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import stats
from repro.metrics.ideal import _frame_sizes, ideal_fct_ps
from repro.traffic.cdf import PiecewiseCdf, _interp
from repro.traffic.distributions import fb_hadoop_cdf, websearch_cdf
from repro.units import serialization_ps

# -- mean / percentile / ks_distance ------------------------------------------

#: numpy's summation changes shape at 8 items (unrolled accumulators) and
#: above 128 (recursive halving at multiples of 8): draw sizes at the edges.
SIZES = st.one_of(
    st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 272]),
    st.integers(min_value=1, max_value=1200),
    st.integers(min_value=1, max_value=10_000),
)
KINDS = st.sampled_from(["slowdown", "heavy_tail", "int_ps", "small_int"])
QS = (0, 37.5, 50, 95, 99, 100)


def sample_list(kind: str, n: int, seed: int) -> list:
    rng = random.Random(seed)
    if kind == "slowdown":
        return [rng.uniform(1.0, 60.0) for _ in range(n)]
    if kind == "heavy_tail":
        return [rng.lognormvariate(0.0, 4.0) * rng.choice((-1, 1)) for _ in range(n)]
    if kind == "int_ps":  # FCTs in picoseconds; 10 000 of them sum below 2**53
        return [rng.randrange(2**38) for _ in range(n)]
    return [rng.randrange(-5, 6) for _ in range(n)]  # ties everywhere


@given(KINDS, SIZES, st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_total_and_mean_equal_numpy(kind, n, seed):
    values = sample_list(kind, n, seed)
    arr = np.asarray(values)
    assert stats.mean(values) == float(arr.mean()) == float(np.mean(values))
    assert stats.total(values) == float(arr.sum(dtype=np.float64))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 136, 255, 256, 257, 4096, 10_000])
def test_mean_equals_numpy_at_block_edges(n):
    values = sample_list("heavy_tail", n, seed=n)
    assert stats.mean(values) == float(np.asarray(values).mean())


def test_total_of_nothing_is_zero_and_mean_refuses():
    assert stats.total([]) == 0.0 == float(np.asarray([]).sum())
    with pytest.raises(ValueError):
        stats.mean([])


@given(KINDS, SIZES, st.integers(0, 2**32), st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=150, deadline=None)
def test_percentile_equals_numpy(kind, n, seed, q_drawn):
    values = sample_list(kind, n, seed)
    arr = np.asarray(values)
    for q in (*QS, q_drawn):
        assert stats.percentile(values, q) == float(np.percentile(arr, q)), q
    assert values == sample_list(kind, n, seed)  # the input is not reordered


def test_percentile_rejects_what_numpy_rejects():
    for q in (-0.1, 100.1):
        with pytest.raises(ValueError):
            np.percentile([1.0, 2.0], q)
        with pytest.raises(ValueError):
            stats.percentile([1.0, 2.0], q)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def numpy_ks_distance(a, b) -> float:
    """``repro.metrics.fct.ks_distance`` as it stood while it used numpy."""
    xa = np.sort(np.asarray(a, dtype=np.float64))
    xb = np.sort(np.asarray(b, dtype=np.float64))
    if xa.size == 0 or xb.size == 0:
        raise ValueError("ks_distance needs non-empty samples")
    grid = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, grid, side="right") / xa.size
    cdf_b = np.searchsorted(xb, grid, side="right") / xb.size
    return float(np.abs(cdf_a - cdf_b).max())


@given(KINDS, SIZES, SIZES, st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_ks_distance_equals_numpy(kind, n_a, n_b, seed):
    a = sample_list(kind, n_a, seed)
    b = sample_list(kind, n_b, seed + 1)
    b[: n_b // 3] = a[: n_b // 3]  # shared points: ties across the samples
    assert stats.ks_distance(a, b) == numpy_ks_distance(a, b)


def test_ks_distance_ends():
    assert stats.ks_distance([1, 2, 3], [1, 2, 3]) == 0.0
    assert stats.ks_distance([1, 2], [3, 4]) == 1.0
    with pytest.raises(ValueError):
        stats.ks_distance([], [1.0])


# -- CDF inversion --------------------------------------------------------------

CDFS = {
    "websearch": websearch_cdf(),
    "hadoop": fb_hadoop_cdf(),
    "websearch_scaled": websearch_cdf().scaled(0.037),
    # Mass at the first size, a flat segment (no flow between 2 KB and 8 KB)
    # and a last probability that is 1.0 only within the 1e-9 tolerance.
    "flat_segment": PiecewiseCdf(
        [(100, 0.1), (2_000, 0.5), (8_000, 0.5), (9_000, 0.5), (50_000, 1.0 - 1e-10)]
    ),
}


def probe_points(cdf: PiecewiseCdf, seed: int, n_random: int) -> list:
    """Every breakpoint, both float neighbours of each, the ends of [0, 1]
    and ``n_random`` draws of the generator's own kind."""
    rng = random.Random(seed)
    points = [0.0, 1.0, math.nextafter(1.0, 0.0)]
    for p in cdf.probs:
        points += [p, math.nextafter(p, -math.inf), math.nextafter(p, math.inf)]
    return points + [rng.random() for _ in range(n_random)]


@pytest.mark.parametrize("name", sorted(CDFS))
def test_interp_and_inversion_equal_numpy(name):
    cdf = CDFS[name]
    xp, fp = np.asarray(cdf.probs), np.asarray(cdf.sizes)
    for u in probe_points(cdf, seed=1, n_random=20_000):
        want = float(np.interp(u, xp, fp))
        assert _interp(u, cdf.probs, cdf.sizes) == want, u
        if 0.0 <= u <= 1.0:
            assert cdf.quantile(u) == max(1, round(want * cdf.scale)), u


def test_seeded_sampling_draws_the_sizes_numpy_drew():
    cdf = websearch_cdf(scale=0.1)
    xp, fp = np.asarray(cdf.probs), np.asarray(cdf.sizes)
    ours, theirs = random.Random(5), random.Random(5)
    for _ in range(2_000):
        want = max(1, round(float(np.interp(theirs.random(), xp, fp)) * cdf.scale))
        assert cdf.sample(ours) == want


# -- ideal FCT --------------------------------------------------------------------


def numpy_ideal_fct_ps(size_bytes, links, mtu, header) -> int:
    """``repro.metrics.ideal._ideal_cached`` as it stood while it evaluated
    the store-and-forward recurrence frame by frame (verbatim)."""
    n_frames, full_size, last_size = _frame_sizes(size_bytes, mtu, header)
    total_prop = sum(d for _, d in links)
    if n_frames == 1:
        return sum(serialization_ps(last_size, r) for r, _ in links) + total_prop

    # Finish times of each frame after the first hop (back-to-back at the
    # first link's rate).
    s0 = serialization_ps(full_size, links[0][0])
    finish = np.arange(1, n_frames + 1, dtype=np.float64) * s0
    finish[-1] += serialization_ps(last_size, links[0][0]) - s0
    for rate, _ in links[1:]:
        s = serialization_ps(full_size, rate)
        s_last = serialization_ps(last_size, rate)
        # A_j(i) = s_j * i + max_{m<=i}(A_{j-1}(m) - s_j * m) + s_j
        idx = np.arange(n_frames, dtype=np.float64)
        ser = np.full(n_frames, float(s))
        ser[-1] = float(s_last)
        shifted = finish - idx * s
        finish = idx * s + np.maximum.accumulate(shifted) + ser
    return int(round(finish[-1])) + total_prop


RATES = st.sampled_from([10.0, 25.0, 40.0, 100.0, 200.0, 400.0, 33.3])
LINKS = st.lists(
    st.tuples(RATES, st.integers(min_value=0, max_value=5_000_000)),
    min_size=1,
    max_size=6,
)
FRAMINGS = st.sampled_from([(1518, 48), (1000, 66), (4096, 48), (9000, 58)])


@given(
    LINKS,
    FRAMINGS,
    st.integers(min_value=1, max_value=3_000),
    st.sampled_from(["full_last_frame", "one_byte_last_frame", "anywhere"]),
    st.integers(0, 2**32),
)
@settings(max_examples=300, deadline=None)
def test_integer_ideal_fct_equals_the_frame_by_frame_recurrence(
    links, framing, n_frames, last_frame, seed
):
    mtu, header = framing
    payload = mtu - header
    size = {
        "full_last_frame": n_frames * payload,
        "one_byte_last_frame": (n_frames - 1) * payload + 1,
        "anywhere": random.Random(seed).randrange(1, n_frames * payload + 1),
    }[last_frame]
    got = ideal_fct_ps(size, links, mtu=mtu, header=header)
    assert got == numpy_ideal_fct_ps(size, tuple(links), mtu, header)
    assert isinstance(got, int)
