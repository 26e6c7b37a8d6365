"""Deterministic RNG plumbing and the stable hash used by ECMP."""

import random

import pytest

from repro.sim.rng import SeedSequenceFactory, stable_hash64


class TestSeedSequenceFactory:
    def test_same_name_same_stream_object(self):
        f = SeedSequenceFactory(1)
        assert f.stream("a") is f.stream("a")

    def test_streams_reproducible_across_factories(self):
        a = SeedSequenceFactory(1).stream("traffic")
        b = SeedSequenceFactory(1).stream("traffic")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_differ(self):
        f = SeedSequenceFactory(1)
        xs = [f.stream("a").random() for _ in range(5)]
        ys = [f.stream("b").random() for _ in range(5)]
        assert xs != ys

    def test_different_roots_differ(self):
        a = SeedSequenceFactory(1).stream("x").random()
        b = SeedSequenceFactory(2).stream("x").random()
        assert a != b

    def test_creation_order_does_not_matter(self):
        f1 = SeedSequenceFactory(9)
        f1.stream("first")
        v1 = f1.stream("second").random()
        f2 = SeedSequenceFactory(9)
        v2 = f2.stream("second").random()
        assert v1 == v2

    def test_stream_is_seeded_with_child_seed(self):
        f = SeedSequenceFactory(3)
        a = [f.stream("n").random() for _ in range(4)]
        b = random.Random(f.child_seed("n"))
        assert a == [b.random() for _ in range(4)]

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            SeedSequenceFactory(-1)
        with pytest.raises(ValueError):
            SeedSequenceFactory(2**63)

    def test_child_seed_stable(self):
        assert SeedSequenceFactory(5).child_seed("q") == SeedSequenceFactory(
            5
        ).child_seed("q")


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64(1, 2, 3) == stable_hash64(1, 2, 3)

    def test_order_sensitive(self):
        assert stable_hash64(1, 2) != stable_hash64(2, 1)

    def test_separator_prevents_concat_collisions(self):
        assert stable_hash64(0x0102, 0x03) != stable_hash64(0x01, 0x0203)

    def test_spreads_small_inputs(self):
        # ECMP uses hash % n; consecutive flow ids must not all map to the
        # same bucket.
        buckets = {stable_hash64(1, 2, fid) % 4 for fid in range(64)}
        assert len(buckets) == 4

    def test_64_bit_range(self):
        for args in [(0,), (1, 2, 3), (2**63, 17)]:
            h = stable_hash64(*args)
            assert 0 <= h < 2**64
