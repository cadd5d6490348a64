"""Tests for the eviction-policy baselines (Table VI machinery): every
cache is built the one way there is, ``make_cache(name, capacity)``."""

import numpy as np
import pytest

from repro.cache.core import make_cache, replay_membership_trace, replay_trace
from repro.experiments.cache_study import _importance_cache
from tests.hotness_tables import as_table


def dps_hit_ratio(batches, capacity, window):
    """Table VI's "HET-KG" column: the DPS membership replay."""
    return replay_membership_trace(batches, capacity, "dps", window)


class TestFIFO:
    def test_admits_until_full(self):
        cache = make_cache("fifo", 2)
        assert not cache.access(1)
        assert not cache.access(2)
        assert cache.access(1)
        assert len(cache) == 2

    def test_evicts_oldest(self):
        cache = make_cache("fifo", 2)
        cache.access(1)
        cache.access(2)
        cache.access(3)  # evicts 1
        assert not cache.access(1)
        assert cache.access(3)

    def test_hit_does_not_refresh_position(self):
        cache = make_cache("fifo", 2)
        cache.access(1)
        cache.access(2)
        cache.access(1)  # hit; FIFO ignores recency
        cache.access(3)  # still evicts 1
        assert not cache.access(1)


class TestLRU:
    def test_evicts_least_recent(self):
        cache = make_cache("lru", 2)
        cache.access(1)
        cache.access(2)
        cache.access(1)  # refresh 1
        cache.access(3)  # evicts 2
        assert cache.access(1)
        assert not cache.access(2)

    def test_lru_beats_fifo_on_looping_trace(self):
        """A trace with a popular recurring key: LRU keeps it, FIFO cycles
        it out."""
        trace = []
        for i in range(100):
            trace.extend([0, 100 + i, 200 + i])  # key 0 recurs every 3 steps
        lru = replay_trace(make_cache("lru", 3), trace)
        fifo = replay_trace(make_cache("fifo", 3), trace)
        assert lru >= fifo


class TestLFU:
    def test_evicts_least_frequent(self):
        cache = make_cache("lfu", 2)
        cache.access(1)
        cache.access(1)
        cache.access(2)
        cache.access(3)  # evicts 2 (freq 1 < freq 2 of key 1)
        assert cache.access(1)
        assert not cache.access(2)

    def test_keeps_heavy_hitters(self):
        cache = make_cache("lfu", 1)
        for _ in range(5):
            cache.access(7)
        cache.access(8)  # evicts 7? No: 8 admitted, 7 evicted (only slot)
        # either way the heavy hitter returns as a miss at most once
        cache.access(7)
        assert cache.access(7)


class TestImportance:
    def test_static_membership(self):
        cache = _importance_cache(2, as_table({1: 10.0, 2: 5.0, 3: 1.0}))
        assert cache.access(1)
        assert cache.access(2)
        assert not cache.access(3)
        assert not cache.access(3)  # never admitted

    def test_capacity_respected(self):
        cache = _importance_cache(1, as_table({1: 2.0, 2: 1.0}))
        assert len(cache) == 1
        assert cache.access(1)
        assert not cache.access(2)

    def test_deterministic_tie_break(self):
        a = _importance_cache(1, as_table({5: 1.0, 3: 1.0}))
        assert a.access(3)


class TestHitRatioAccounting:
    def test_ratio(self):
        cache = make_cache("lru", 4)
        replay_trace(cache, [1, 1, 1, 2])
        assert cache.hit_ratio == 0.5
        assert cache.hits == 2 and cache.misses == 2

    def test_empty_trace(self):
        cache = make_cache("lru", 4)
        assert replay_trace(cache, []) == 0.0


class TestHotnessWindow:
    def test_perfect_when_capacity_covers_window(self):
        batches = [np.array([1, 2]), np.array([2, 3])]
        assert dps_hit_ratio(batches, capacity=4, window=2) == 1.0

    def test_partial_coverage(self):
        # Window of one batch with 4 distinct keys, capacity 2 -> 50%.
        batches = [np.array([1, 2, 3, 4])]
        assert dps_hit_ratio(batches, capacity=2, window=1) == 0.5

    def test_prefers_frequent_keys(self):
        batches = [np.array([7, 7, 7, 1, 2, 3])]
        ratio = dps_hit_ratio(batches, capacity=1, window=1)
        assert ratio == 0.5  # the three 7s hit

    def test_windows_are_independent(self):
        batches = [np.array([1, 1]), np.array([2, 2])]
        assert dps_hit_ratio(batches, capacity=1, window=1) == 1.0

    def test_empty(self):
        assert dps_hit_ratio([], 4, 2) == 0.0

    def test_beats_lru_on_skewed_trace(self, rng):
        """The Table VI headline: hotness windows beat recency eviction on
        Zipf-skewed pull streams."""
        keys = rng.zipf(1.5, size=4000) % 200
        batches = [keys[i : i + 40] for i in range(0, len(keys), 40)]
        hot = dps_hit_ratio(batches, capacity=20, window=8)
        lru = replay_trace(make_cache("lru", 20), keys)
        assert hot > lru


class TestClock:
    def test_second_chance(self):
        cache = make_cache("clock", 2)
        cache.access(1)
        cache.access(2)
        cache.access(1)  # sets 1's reference bit
        cache.access(3)  # hand skips 1 (clears bit), evicts 2
        assert cache.access(1)
        assert not cache.access(2)

    def test_capacity(self):
        cache = make_cache("clock", 3)
        for k in range(10):
            cache.access(k)
        assert len(cache) == 3

    def test_behaves_between_fifo_and_lru(self, rng):
        keys = (rng.zipf(1.3, size=3000) % 100).tolist()
        fifo = replay_trace(make_cache("fifo", 10), keys)
        clock = replay_trace(make_cache("clock", 10), keys)
        assert clock >= fifo - 0.02


class TestTwoQueue:
    def test_promotion_on_second_access(self):
        cache = make_cache("2q", 4, probation_fraction=0.5)
        cache.access(1)  # probation
        assert cache.access(1)  # promoted
        # Flood the probation queue; 1 must survive in protected.
        for k in range(10, 16):
            cache.access(k)
        assert cache.access(1)

    def test_one_hit_wonders_do_not_evict_protected(self):
        cache = make_cache("2q", 4, probation_fraction=0.25)
        cache.access(1)
        cache.access(1)  # protected
        for k in range(100, 140):
            cache.access(k)  # scan of cold keys
        assert cache.access(1)

    def test_capacity(self):
        cache = make_cache("2q", 4)
        for k in range(50):
            cache.access(k % 7)
        assert len(cache) <= 4

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            make_cache("2q", 4, probation_fraction=1.0)


class TestARC:
    def test_frequent_keys_survive_scan(self):
        cache = make_cache("arc", 4)
        for _ in range(5):
            cache.access(1)
            cache.access(2)
        for k in range(100, 120):  # sequential scan
            cache.access(k)
        # ARC's frequency segment should have protected 1 and 2 better
        # than plain LRU would.
        lru = make_cache("lru", 4)
        for _ in range(5):
            lru.access(1)
            lru.access(2)
        for k in range(100, 120):
            lru.access(k)
        arc_hits = int(cache.access(1)) + int(cache.access(2))
        lru_hits = int(lru.access(1)) + int(lru.access(2))
        assert arc_hits >= lru_hits

    def test_capacity_bound(self, rng):
        cache = make_cache("arc", 8)
        for k in (rng.integers(0, 50, size=2000)).tolist():
            cache.access(k)
        assert len(cache) <= 8

    def test_hit_accounting(self):
        cache = make_cache("arc", 4)
        assert not cache.access(1)
        assert cache.access(1)
        assert cache.hits == 1 and cache.misses == 1

    def test_at_least_lru_on_skewed_trace(self, rng):
        keys = (rng.zipf(1.4, size=4000) % 150).tolist()
        arc = replay_trace(make_cache("arc", 15), keys)
        lru = replay_trace(make_cache("lru", 15), keys)
        assert arc >= lru - 0.03
