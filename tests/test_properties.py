"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cache.filtering import filter_hot_ids
from repro.cache.core import make_cache, replay_trace
from repro.cache.table import CacheTable
from repro.kg.graph import KnowledgeGraph
from repro.kg.stats import gini, top_fraction_share
from repro.models.losses import LogisticLoss, MarginRankingLoss
from repro.optim.base import coalesce
from repro.partition.metis import MetisPartitioner
from repro.partition.quality import cut_fraction
from repro.utils.simclock import SimClock
from tests.hotness_tables import as_table
from tests.test_cache_table import holding, rows_of

ids_strategy = st.lists(st.integers(0, 50), min_size=1, max_size=40)


class TestCoalesceProperties:
    @given(ids=ids_strategy, seed=st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_total_gradient_mass_preserved(self, ids, seed):
        rng = np.random.default_rng(seed)
        grads = rng.normal(size=(len(ids), 3))
        unique, summed = coalesce(np.asarray(ids), grads)
        np.testing.assert_allclose(summed.sum(axis=0), grads.sum(axis=0), atol=1e-9)

    @given(ids=ids_strategy)
    @settings(max_examples=50, deadline=None)
    def test_unique_sorted_output(self, ids):
        unique, _ = coalesce(np.asarray(ids), np.ones((len(ids), 1)))
        assert np.array_equal(unique, np.unique(ids))


class TestCacheTableProperties:
    @given(
        ids=st.lists(st.integers(0, 1000), min_size=0, max_size=20, unique=True),
        capacity=st.integers(20, 40),
    )
    @settings(max_examples=50, deadline=None)
    def test_install_membership_exact(self, ids, capacity):
        table = CacheTable(capacity, 2)
        rows = np.arange(2 * len(ids), dtype=np.float64).reshape(len(ids), 2)
        table.install(np.asarray(ids, dtype=np.int64), rows)
        assert len(table) == len(ids)
        for i in ids:
            assert i in table
        if ids:
            np.testing.assert_array_equal(rows_of(table, ids), rows)

    @given(
        queries=st.lists(st.integers(0, 30), min_size=1, max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, queries):
        table = CacheTable(10, 1)
        table.install(np.arange(10), np.zeros((10, 1)))
        holding(table).fetch("entity", np.asarray(queries))
        assert table.stats.accesses == len(queries)
        expected_hits = sum(1 for q in queries if q < 10)
        assert table.stats.hits == expected_hits


class TestEvictionPolicyProperties:
    @given(
        trace=st.lists(st.integers(0, 30), min_size=1, max_size=200),
        capacity=st.integers(1, 10),
    )
    @settings(max_examples=50, deadline=None)
    def test_capacity_never_exceeded(self, trace, capacity):
        for policy in ("fifo", "lru", "lfu"):
            cache = make_cache(policy, capacity)
            replay_trace(cache, trace)
            assert len(cache) <= capacity

    @given(trace=st.lists(st.integers(0, 5), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_hit_ratio_one_when_capacity_covers_universe(self, trace):
        cache = make_cache("lru", 6)
        ratio = replay_trace(cache, trace)
        misses = len(set(trace))
        assert cache.misses == misses  # each key misses exactly once

    @given(
        trace=st.lists(st.integers(0, 50), min_size=1, max_size=100),
        capacity=st.integers(1, 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_hit_ratio_bounds(self, trace, capacity):
        for policy in ("fifo", "lru", "lfu"):
            assert 0.0 <= replay_trace(make_cache(policy, capacity), trace) <= 1.0


class TestFilterProperties:
    @given(
        n_ent=st.integers(1, 30),
        n_rel=st.integers(1, 30),
        capacity=st.integers(1, 40),
        ratio=st.one_of(st.none(), st.floats(0.0, 1.0)),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=80, deadline=None)
    def test_size_never_exceeds_capacity(self, n_ent, n_rel, capacity, ratio, seed):
        rng = np.random.default_rng(seed)
        ents = {i: int(rng.integers(1, 100)) for i in range(n_ent)}
        rels = {i: int(rng.integers(1, 100)) for i in range(n_rel)}
        hot = filter_hot_ids(as_table(ents), as_table(rels), capacity, ratio)
        assert hot.size <= capacity
        assert len(np.unique(hot.entities)) == len(hot.entities)
        assert len(np.unique(hot.relations)) == len(hot.relations)

    @given(capacity=st.integers(1, 10), seed=st.integers(0, 20))
    @settings(max_examples=30, deadline=None)
    def test_selected_are_hottest(self, capacity, seed):
        rng = np.random.default_rng(seed)
        counts = {i: int(c) for i, c in enumerate(rng.integers(1, 1000, size=30))}
        hot = filter_hot_ids(
            as_table(counts), as_table({}), capacity, entity_ratio=1.0
        )
        chosen = set(hot.entities.tolist())
        min_chosen = min(counts[i] for i in chosen)
        max_rejected = max(
            (c for i, c in counts.items() if i not in chosen), default=0
        )
        assert min_chosen >= max_rejected or len(chosen) == len(counts)


class TestPartitionProperties:
    @given(
        n=st.integers(8, 40),
        extra=st.integers(0, 60),
        k=st.integers(1, 4),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_metis_is_a_valid_partition(self, n, extra, k, seed):
        rng = np.random.default_rng(seed)
        chain = [(i, 0, (i + 1) % n) for i in range(n)]
        rand = [
            (int(rng.integers(n)), 0, int(rng.integers(n))) for _ in range(extra)
        ]
        rand = [(h, r, t) for h, r, t in rand if h != t]
        g = KnowledgeGraph(np.asarray(chain + rand), num_entities=n, num_relations=1)
        part = MetisPartitioner(seed=seed).partition(g, k)
        # Every entity assigned exactly once to a valid part.
        assert len(part.entity_part) == n
        assert part.entity_part.min() >= 0
        assert part.entity_part.max() < k
        # Triples follow heads.
        np.testing.assert_array_equal(
            part.triple_part, part.entity_part[g.triples[:, 0]]
        )
        assert 0.0 <= cut_fraction(g, part) <= 1.0


class TestLossProperties:
    @given(
        seed=st.integers(0, 100),
        batch=st.integers(1, 8),
        n_neg=st.integers(1, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_losses_non_negative(self, seed, batch, n_neg):
        rng = np.random.default_rng(seed)
        pos = rng.normal(size=batch)
        neg = rng.normal(size=(batch, n_neg))
        for loss in (MarginRankingLoss(1.0), LogisticLoss()):
            result = loss.compute(pos, neg)
            assert result.value >= 0.0
            assert np.all(np.isfinite(result.grad_pos))
            assert np.all(np.isfinite(result.grad_neg))

    @given(seed=st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_ranking_grad_signs(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.normal(size=4)
        neg = rng.normal(size=(4, 3))
        result = MarginRankingLoss(1.0).compute(pos, neg)
        assert np.all(result.grad_pos <= 0)
        assert np.all(result.grad_neg >= 0)


class TestStatsProperties:
    @given(
        counts=arrays(
            np.int64, st.integers(1, 50), elements=st.integers(0, 10_000)
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_gini_in_unit_interval(self, counts):
        assert 0.0 <= gini(counts) <= 1.0

    @given(
        counts=arrays(np.int64, st.integers(1, 50), elements=st.integers(0, 1000)),
        fraction=st.floats(0.01, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_top_share_monotone_in_fraction(self, counts, fraction):
        smaller = top_fraction_share(counts, fraction / 2)
        larger = top_fraction_share(counts, fraction)
        assert smaller <= larger + 1e-12


class TestSimClockProperties:
    @given(steps=st.lists(st.floats(0, 100), min_size=0, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_elapsed_is_sum_of_categories(self, steps):
        clock = SimClock()
        for i, s in enumerate(steps):
            clock.advance(s, "a" if i % 2 else "b")
        assert clock.elapsed == pytest.approx(sum(clock.by_category.values()))
        assert clock.elapsed == pytest.approx(sum(steps))


class TestNegativeSamplerProperties:
    @given(
        batch=st.integers(1, 40),
        n_neg=st.integers(1, 8),
        chunk=st.integers(1, 16),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunked_unique_negatives_bounded(self, batch, n_neg, chunk, seed):
        """Chunked corruption draws at most ceil(b/chunk) * n_neg distinct
        negative entities."""
        from repro.sampling.negative import NegativeSampler

        rng = np.random.default_rng(seed)
        positives = np.stack(
            [
                rng.integers(0, 100, size=batch),
                rng.integers(0, 5, size=batch),
                rng.integers(0, 100, size=batch),
            ],
            axis=1,
        )
        sampler = NegativeSampler(
            100, n_neg, strategy="chunked", chunk_size=chunk, seed=seed
        )
        out = sampler.corrupt(positives)
        chunks = -(-batch // chunk)
        assert len(np.unique(out.neg_entities)) <= chunks * n_neg

    @given(batch=st.integers(1, 30), seed=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_batch_shapes_invariant(self, batch, seed):
        from repro.sampling.negative import NegativeSampler

        rng = np.random.default_rng(seed)
        positives = np.stack(
            [
                rng.integers(0, 50, size=batch),
                rng.integers(0, 3, size=batch),
                rng.integers(0, 50, size=batch),
            ],
            axis=1,
        )
        out = NegativeSampler(50, 4, seed=seed).corrupt(positives)
        assert out.neg_entities.shape == (batch, 4)
        assert out.unique_entities().max() < 50


class TestQuaternionAlgebra:
    @given(seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_hamilton_norm_multiplicative(self, seed):
        """|p (x) q| = |p| |q| per component — the quaternion norm is
        multiplicative."""
        from repro.models.quate import hamilton

        rng = np.random.default_rng(seed)
        p = tuple(rng.normal(size=(2, 3)) for _ in range(4))
        q = tuple(rng.normal(size=(2, 3)) for _ in range(4))
        prod = hamilton(p, q)
        norm = lambda x: sum(c**2 for c in x)
        np.testing.assert_allclose(norm(prod), norm(p) * norm(q), rtol=1e-9)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_hamilton_associative(self, seed):
        from repro.models.quate import hamilton

        rng = np.random.default_rng(seed)
        p, q, s = (
            tuple(rng.normal(size=(1, 2)) for _ in range(4)) for _ in range(3)
        )
        left = hamilton(hamilton(p, q), s)
        right = hamilton(p, hamilton(q, s))
        for a, b in zip(left, right):
            np.testing.assert_allclose(a, b, rtol=1e-9)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_conjugate_reverses_product(self, seed):
        """(p (x) q)* = q* (x) p*."""
        from repro.models.quate import conjugate, hamilton

        rng = np.random.default_rng(seed)
        p = tuple(rng.normal(size=(1, 2)) for _ in range(4))
        q = tuple(rng.normal(size=(1, 2)) for _ in range(4))
        left = conjugate(hamilton(p, q))
        right = hamilton(conjugate(q), conjugate(p))
        for a, b in zip(left, right):
            np.testing.assert_allclose(a, b, rtol=1e-9)


class TestAdagradProperties:
    @given(
        steps=st.integers(1, 20),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_accumulator_monotone(self, steps, seed):
        from repro.optim.adagrad import SparseAdagrad

        rng = np.random.default_rng(seed)
        opt = SparseAdagrad(lr=0.1)
        table = np.zeros((4, 2))
        prev = np.zeros_like(table)
        for _ in range(steps):
            ids = rng.integers(0, 4, size=3)
            grads = rng.normal(size=(3, 2))
            opt.update("t", table, ids, grads)
            acc = opt.state["t"]
            assert np.all(acc >= prev - 1e-15)
            prev = acc.copy()

    @given(seed=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_step_magnitude_bounded_by_lr(self, seed):
        """Each AdaGrad coordinate step is at most lr (plus eps slack)."""
        from repro.optim.adagrad import SparseAdagrad

        rng = np.random.default_rng(seed)
        opt = SparseAdagrad(lr=0.1)
        table = np.zeros((2, 3))
        for _ in range(5):
            before = table.copy()
            ids = np.array([0, 1])
            grads = rng.normal(size=(2, 3)) * 10
            opt.update("t", table, ids, grads)
            assert np.all(np.abs(table - before) <= 0.1 + 1e-9)
