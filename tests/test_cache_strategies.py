"""Tests for the CPS and DPS hot-table construction strategies."""

import numpy as np
import pytest

from repro.cache.strategies import ConstantPartialStale, DynamicPartialStale
from repro.sampling.minibatch import EpochSampler
from repro.sampling.negative import NegativeSampler


def make_sampler(graph, seed=0, batch_size=16):
    neg = NegativeSampler(graph.num_entities, num_negatives=4, seed=seed)
    return EpochSampler(graph, batch_size, neg, seed=seed)


class TestCPS:
    def test_setup_returns_hot_set(self, small_graph):
        strategy = ConstantPartialStale(capacity=32)
        hot = strategy.setup(make_sampler(small_graph))
        assert 0 < hot.size <= 32

    def test_membership_never_changes(self, small_graph):
        strategy = ConstantPartialStale(capacity=32)
        strategy.setup(make_sampler(small_graph))
        for _ in range(2 * strategy._sampler.batches_per_epoch + 3):
            _, new_hot = strategy.next_batch()
            assert new_hot is None

    def test_trains_on_prefetched_batches(self, small_graph):
        """CPS must train on exactly the batches it counted frequencies
        from (first epoch)."""
        a = make_sampler(small_graph, seed=3)
        b = make_sampler(small_graph, seed=3)
        strategy = ConstantPartialStale(capacity=16)
        strategy.setup(a)
        expected = b.prefetch(b.batches_per_epoch)
        for want in expected:
            got, _ = strategy.next_batch()
            assert np.array_equal(got.positives, want.positives)

    def test_overhead_reported_once(self, small_graph):
        strategy = ConstantPartialStale(capacity=16)
        strategy.setup(make_sampler(small_graph))
        assert strategy.consume_overhead_items() > 0
        assert strategy.consume_overhead_items() == 0
        strategy.next_batch()
        assert strategy.consume_overhead_items() == 0

    def test_first_window_is_one_epoch(self, small_graph):
        sampler = make_sampler(small_graph)
        strategy = ConstantPartialStale(capacity=16)
        strategy.setup(sampler)
        assert len(strategy._queue) == sampler.batches_per_epoch

    def test_next_batch_before_setup(self):
        with pytest.raises(RuntimeError, match="setup"):
            ConstantPartialStale(capacity=4).next_batch()

    def test_epoch_rollover(self, small_graph):
        sampler = make_sampler(small_graph)
        strategy = ConstantPartialStale(capacity=16)
        strategy.setup(sampler)
        n = sampler.batches_per_epoch
        for _ in range(n + 2):  # crosses the epoch boundary
            batch, _ = strategy.next_batch()
            assert batch.size > 0


class TestDPS:
    def test_rebuilds_every_window(self, small_graph):
        strategy = DynamicPartialStale(capacity=32, window=4)
        strategy.setup(make_sampler(small_graph))
        events = []
        for i in range(12):
            _, new_hot = strategy.next_batch()
            events.append(new_hot is not None)
        # Batches 0-3 from setup window; rebuild arrives with batch 4 and 8.
        assert events == [False] * 4 + [True] + [False] * 3 + [True] + [False] * 3

    def test_hot_sets_track_windows(self, small_graph):
        """DPS hot entities must be exactly the top-k of the window it
        prefetched."""
        strategy = DynamicPartialStale(capacity=8, window=4, entity_ratio=0.5)
        hot = strategy.setup(make_sampler(small_graph))
        assert len(hot.entities) <= 4
        assert len(hot.relations) <= 8

    def test_overhead_recurs(self, small_graph):
        strategy = DynamicPartialStale(capacity=16, window=2)
        strategy.setup(make_sampler(small_graph))
        first = strategy.consume_overhead_items()
        assert first > 0
        strategy.next_batch()
        strategy.next_batch()  # triggers refill
        strategy.next_batch()
        assert strategy.consume_overhead_items() > 0

    def test_dps_hit_ratio_at_least_cps(self, small_graph):
        """The paper's DPS motivation: window-local top-k should hit at
        least as often as the global top-k on the same stream, for a small
        cache."""
        from repro.cache.prefetch import prefetch

        capacity = 8
        # Global top-k (CPS) baseline.
        cps_sampler = make_sampler(small_graph, seed=1)
        cps = ConstantPartialStale(capacity=capacity, entity_ratio=0.5)
        cps_hot = cps.setup(cps_sampler)
        cps_set = set(cps_hot.entities.tolist())

        dps_sampler = make_sampler(small_graph, seed=1)
        dps = DynamicPartialStale(capacity=capacity, window=4, entity_ratio=0.5)
        hot = dps.setup(dps_sampler)
        dps_set = set(hot.entities.tolist())

        def run(strategy, member_sets):
            hits = total = 0
            current = member_sets
            for _ in range(20):
                batch, new_hot = strategy.next_batch()
                if new_hot is not None:
                    current = set(new_hot.entities.tolist())
                for e in batch.unique_entities().tolist():
                    hits += e in current
                    total += 1
            return hits / total

        assert run(dps, dps_set) >= run(cps, cps_set) - 0.05

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            DynamicPartialStale(capacity=8, window=0)

    def test_next_batch_before_setup(self):
        with pytest.raises(RuntimeError, match="setup"):
            DynamicPartialStale(capacity=4).next_batch()
