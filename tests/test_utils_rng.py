"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import DEFAULT_SEED, make_rng, spawn_rngs


class TestMakeRng:
    def test_returns_generator(self):
        assert isinstance(make_rng(1), np.random.Generator)

    def test_same_seed_same_stream(self):
        a, b = make_rng(5), make_rng(5)
        assert a.integers(0, 1000) == b.integers(0, 1000)

    def test_different_seeds_diverge(self):
        a, b = make_rng(1), make_rng(2)
        draws_a = a.integers(0, 10**9, size=8)
        draws_b = b.integers(0, 10**9, size=8)
        assert not np.array_equal(draws_a, draws_b)

    def test_none_uses_default_seed(self):
        a = make_rng(None)
        b = make_rng(DEFAULT_SEED)
        assert a.integers(0, 1000) == b.integers(0, 1000)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(3)
        assert make_rng(gen) is gen


class TestSpawnRngs:
    def test_count(self):
        children = spawn_rngs(make_rng(0), 5)
        assert len(children) == 5

    def test_children_independent(self):
        children = spawn_rngs(make_rng(0), 2)
        a = children[0].integers(0, 10**9, size=8)
        b = children[1].integers(0, 10**9, size=8)
        assert not np.array_equal(a, b)

    def test_deterministic(self):
        a = spawn_rngs(make_rng(0), 3)
        b = spawn_rngs(make_rng(0), 3)
        for x, y in zip(a, b):
            assert x.integers(0, 10**6) == y.integers(0, 10**6)

    def test_zero_count(self):
        assert spawn_rngs(make_rng(0), 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            spawn_rngs(make_rng(0), -1)


class TestSplitWorkerStreams:
    def test_integer_seeds(self):
        from repro.utils.rng import split_worker_streams

        seeds = split_worker_streams(make_rng(0), 4)
        assert len(seeds) == 4
        assert all(isinstance(s, int) for s in seeds)

    def test_deterministic(self):
        from repro.utils.rng import split_worker_streams

        assert split_worker_streams(make_rng(7), 6) == split_worker_streams(
            make_rng(7), 6
        )

    def test_matches_spawn_rngs_streams(self):
        # spawn_rngs must be exactly "seed each stream from the split":
        # trainers seed from the integers, other callers take generators,
        # and both must agree.
        from repro.utils.rng import split_worker_streams

        seeds = split_worker_streams(make_rng(3), 4)
        gens = spawn_rngs(make_rng(3), 4)
        for seed, gen in zip(seeds, gens):
            expect = np.random.default_rng(seed).integers(0, 10**9, size=8)
            assert np.array_equal(gen.integers(0, 10**9, size=8), expect)

    def test_zero_count(self):
        from repro.utils.rng import split_worker_streams

        assert split_worker_streams(make_rng(0), 0) == []

    def test_negative_count_rejected(self):
        from repro.utils.rng import split_worker_streams

        with pytest.raises(ValueError, match="non-negative"):
            split_worker_streams(make_rng(0), -2)

    def test_prefix_stability_property(self):
        # Drawing k streams is a prefix of drawing k+m streams from the
        # same parent state: growing the worker count must not reshuffle
        # the seeds existing workers get.
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.utils.rng import split_worker_streams

        @settings(max_examples=25, deadline=None)
        @given(
            seed=st.integers(0, 2**31 - 1),
            k=st.integers(1, 8),
            extra=st.integers(0, 8),
        )
        def check(seed, k, extra):
            small = split_worker_streams(make_rng(seed), k)
            large = split_worker_streams(make_rng(seed), k + extra)
            assert large[:k] == small

        check()

    def test_distinct_seeds_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.utils.rng import split_worker_streams

        @settings(max_examples=25, deadline=None)
        @given(seed=st.integers(0, 2**31 - 1), count=st.integers(2, 16))
        def check(seed, count):
            seeds = split_worker_streams(make_rng(seed), count)
            assert len(set(seeds)) == count

        check()


class TestWorkerStream:
    def test_deterministic_per_machine(self):
        from repro.utils.rng import worker_stream

        a = worker_stream(5, 2).integers(0, 10**9, size=8)
        b = worker_stream(5, 2).integers(0, 10**9, size=8)
        assert np.array_equal(a, b)

    def test_machines_diverge(self):
        from repro.utils.rng import worker_stream

        a = worker_stream(5, 0).integers(0, 10**9, size=8)
        b = worker_stream(5, 1).integers(0, 10**9, size=8)
        assert not np.array_equal(a, b)


class TestDeriveStream:
    def test_salted_offset(self):
        from repro.utils.rng import derive_stream

        a = derive_stream(3, 100)
        b = make_rng(103)
        assert a.integers(0, 10**9) == b.integers(0, 10**9)

    def test_salts_diverge(self):
        from repro.utils.rng import derive_stream

        a = derive_stream(3, 1).integers(0, 10**9, size=8)
        b = derive_stream(3, 2).integers(0, 10**9, size=8)
        assert not np.array_equal(a, b)
