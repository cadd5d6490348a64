"""Tests for repro.cache.table."""

import numpy as np
import pytest

from repro.cache.table import CacheStats, CacheTable


@pytest.fixture
def table():
    t = CacheTable(capacity=4, width=2)
    t.install(np.array([10, 20, 30]), np.arange(6, dtype=np.float64).reshape(3, 2))
    return t


class TestInstall:
    def test_membership(self, table):
        assert len(table) == 3
        assert 10 in table and 30 in table
        assert 99 not in table

    def test_over_capacity_rejected(self):
        t = CacheTable(2, 1)
        with pytest.raises(ValueError, match="capacity"):
            t.install(np.array([1, 2, 3]), np.zeros((3, 1)))

    def test_duplicate_ids_rejected(self):
        t = CacheTable(4, 1)
        with pytest.raises(ValueError, match="unique"):
            t.install(np.array([1, 1]), np.zeros((2, 1)))

    def test_rejected_install_changes_nothing(self, table):
        before = table.rows_view().copy()
        for ids in ([7, 7], [5, -2]):
            with pytest.raises(ValueError):
                table.install(np.array(ids), np.ones((2, 2)))
            assert table.ids.tolist() == [10, 20, 30]
            assert 7 not in table and 5 not in table
            assert np.array_equal(table.rows_view(), before)

    def test_mismatched_rows_rejected(self):
        t = CacheTable(4, 1)
        with pytest.raises(ValueError, match="ids"):
            t.install(np.array([1, 2]), np.zeros((3, 1)))

    def test_reinstall_replaces_membership(self, table):
        table.install(np.array([7]), np.array([[9.0, 9.0]]))
        assert 7 in table
        assert 10 not in table
        assert len(table) == 1

    def test_empty_install(self):
        t = CacheTable(4, 2)
        t.install(np.array([], dtype=np.int64), np.zeros((0, 2)))
        assert len(t) == 0

    def test_zero_capacity(self):
        t = CacheTable(0, 2)
        t.install(np.array([], dtype=np.int64), np.zeros((0, 2)))
        assert len(t) == 0

    def test_shrinking_install_zeroes_stale_tail(self, table):
        """Regression: installing a smaller hot set left the previous
        membership's rows in the slots beyond the new occupancy, so any
        consumer of ``rows_view()`` that trusted slot indices could read
        (or update) embeddings of entities no longer cached."""
        table.install(np.array([7]), np.array([[9.0, 9.0]]))
        assert table.occupied == 1
        assert not table.rows_view()[1:].any()

    def test_occupied_tracks_membership(self, table):
        assert table.occupied == 3
        table.install(np.array([], dtype=np.int64), np.zeros((0, 2)))
        assert table.occupied == 0
        assert not table.rows_view().any()

    def test_growing_install_overwrites_cleanly(self):
        t = CacheTable(4, 2)
        t.install(np.array([1]), np.array([[5.0, 5.0]]))
        t.install(
            np.array([2, 3, 4]), np.arange(6, dtype=np.float64).reshape(3, 2)
        )
        assert t.occupied == 3
        assert t.get(np.array([2]))[0].tolist() == [0.0, 1.0]
        assert not t.rows_view()[3:].any()

    def test_stats_survive_reinstall(self, table):
        table.partition_hits(np.array([10, 99]))
        table.install(np.array([7]), np.array([[0.0, 0.0]]))
        assert table.stats.hits == 1
        assert table.stats.misses == 1


class TestReads:
    def test_get_preserves_order(self, table):
        rows = table.get(np.array([30, 10]))
        assert rows[0].tolist() == [4.0, 5.0]
        assert rows[1].tolist() == [0.0, 1.0]

    def test_get_returns_copy(self, table):
        rows = table.get(np.array([10]))
        rows[0, 0] = 777.0
        assert table.get(np.array([10]))[0, 0] == 0.0

    def test_get_missing_raises(self, table):
        with pytest.raises(KeyError, match="not cached"):
            table.get(np.array([99]))

    def test_partition_hits(self, table):
        mask, hits, misses = table.partition_hits(np.array([10, 99, 30]))
        assert mask.tolist() == [True, False, True]
        assert list(hits) == [10, 30]
        assert list(misses) == [99]

    def test_partition_counts_duplicates(self, table):
        table.partition_hits(np.array([10, 10, 99]))
        assert table.stats.hits == 2
        assert table.stats.misses == 1

    def test_lookup_no_stats(self, table):
        mask, slots = table.lookup(np.array([10, 99, -1, 30]))
        assert mask.tolist() == [True, False, False, True]
        assert slots.tolist() == [0, -1, -1, 2]
        assert table.stats.accesses == 0


class TestWrites:
    def test_set(self, table):
        table.set(np.array([20]), np.array([[8.0, 8.0]]))
        assert table.get(np.array([20]))[0].tolist() == [8.0, 8.0]

    def test_slot_of(self, table):
        slots = table.slot_of(np.array([20]))
        assert table.rows_view()[slots[0]].tolist() == [2.0, 3.0]


class TestCacheStats:
    def test_hit_ratio(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_ratio == 0.75
        assert stats.accesses == 4

    def test_empty_ratio(self):
        assert CacheStats().hit_ratio == 0.0

    def test_merge_and_reset(self):
        a, b = CacheStats(1, 2), CacheStats(3, 4)
        a.merge(b)
        assert (a.hits, a.misses) == (4, 6)
        a.reset()
        assert a.accesses == 0

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            CacheTable(4, 0)

    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            CacheTable(-1, 2)
