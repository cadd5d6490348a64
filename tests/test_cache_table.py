"""Tests for repro.cache.table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.sync import HotEmbeddingCache
from repro.cache.table import CacheStats, CacheTable
from repro.ps.network import CommRecord
from tests.reference.graph_mutation_reference import invalidate_ids_reference


class EchoServer:
    """A PS stand-in for a fetch's misses: every cell of id ``i``'s row is
    ``-i - 0.5``; each pull's ids are kept in :attr:`pulled`."""

    def __init__(self, width: int) -> None:
        self.width = width
        self.pulled: list[list[int]] = []

    def pull(self, kind, ids):
        self.pulled.append(np.asarray(ids).tolist())
        rows = np.repeat(-np.asarray(ids, dtype=np.float64)[:, None] - 0.5, self.width, axis=1)
        return rows, CommRecord()


def holding(table: CacheTable) -> HotEmbeddingCache:
    """A hot-embedding cache whose entity table is ``table``, missing to an
    :class:`EchoServer` (``fetch`` is where reads are counted)."""
    cache = HotEmbeddingCache(table.capacity, 1, table.width, 1, sync_period=1, local_lr=1.0)
    cache._tables["entity"] = table
    cache.server = EchoServer(table.width)
    return cache


def rows_of(table: CacheTable, ids) -> np.ndarray:
    """The cached rows of ``ids``, in order (every id must be cached)."""
    return table.rows_view()[table.slot_of(np.asarray(ids, dtype=np.int64))]


def _read_only(ids) -> np.ndarray:
    """A read-only id array owning its data, as a batch index's are."""
    array = np.array(ids, dtype=np.int64)
    array.flags.writeable = False
    return array


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
        assert rows_of(t, [2])[0].tolist() == [0.0, 1.0]
        assert not t.rows_view()[3:].any()

    def test_stats_survive_reinstall(self, table):
        holding(table).fetch("entity", np.array([10, 99]))
        table.install(np.array([7]), np.array([[0.0, 0.0]]))
        assert table.stats.hits == 1
        assert table.stats.misses == 1


class TestReads:
    def test_get_preserves_order(self, table):
        rows, _ = holding(table).fetch("entity", np.array([30, 10]))
        assert rows[0].tolist() == [4.0, 5.0]
        assert rows[1].tolist() == [0.0, 1.0]

    def test_get_returns_copy(self, table):
        cache = holding(table)
        for ids in (np.array([10]), _read_only([10])):
            rows, _ = cache.fetch("entity", ids)
            rows[0, 0] = 777.0
            assert cache.fetch("entity", ids)[0][0, 0] == 0.0

    def test_get_missing_raises(self, table):
        with pytest.raises(KeyError, match="not cached"):
            table.slot_of(np.array([99]))

    def test_partition_hits(self, table):
        cache = holding(table)
        rows, _ = cache.fetch("entity", np.array([10, 99, 30]))
        assert cache.server.pulled == [[99]]
        assert rows.tolist() == [[0.0, 1.0], [-99.5, -99.5], [4.0, 5.0]]
        mask, slots = table.lookup(np.array([10, 99, 30]))
        assert mask.tolist() == [True, False, True]
        assert slots.tolist() == [0, -1, 2]

    def test_partition_counts_duplicates(self, table):
        holding(table).fetch("entity", np.array([10, 10, 99]))
        assert table.stats.hits == 2
        assert table.stats.misses == 1

    def test_all_hits_pull_nothing(self, table):
        cache = holding(table)
        rows, comm = cache.fetch("entity", _read_only([30, 20, 30]))
        assert rows.tolist() == [[4.0, 5.0], [2.0, 3.0], [4.0, 5.0]]
        assert cache.server.pulled == [] and comm.total_bytes == 0
        assert (table.stats.hits, table.stats.misses) == (3, 0)

    def test_lookup_remembers_read_only_ids_until_membership_changes(self, table):
        ids = _read_only([20, 99])
        answer = table.lookup(ids)
        assert table.lookup(ids) is answer
        assert table.lookup(np.array([20, 99])) is not answer
        view = np.array([20, 99])[:]
        view.flags.writeable = False  # its base stays writable: not kept
        assert table.lookup(view) is not table.lookup(view)
        table.evict(np.array([99]))  # nothing cached: nothing changes
        assert table.lookup(ids) is answer
        table.evict(np.array([20]))
        assert table.lookup(ids)[0].tolist() == [False, False]
        table.install(np.array([99]), np.ones((1, 2)))
        assert table.lookup(ids)[1].tolist() == [-1, 0]

    def test_lookup_no_stats(self, table):
        mask, slots = table.lookup(np.array([10, 99, -1, 30]))
        assert mask.tolist() == [True, False, False, True]
        assert slots.tolist() == [0, -1, -1, 2]
        assert table.stats.accesses == 0


class TestWrites:
    def test_set(self, table):
        table.set(np.array([20]), np.array([[8.0, 8.0]]))
        assert rows_of(table, [20])[0].tolist() == [8.0, 8.0]

    def test_slot_of(self, table):
        slots = table.slot_of(np.array([20]))
        assert table.rows_view()[slots[0]].tolist() == [2.0, 3.0]


class TestEvict:
    def test_survivors_move_down_in_install_order(self, table):
        assert table.evict(np.array([20, 99, 20, -4])) == 1
        assert table.ids.tolist() == [10, 30]
        assert rows_of(table, [30])[0].tolist() == [4.0, 5.0]
        assert table.rows_view()[2:].tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert 20 not in table and table.occupied == 2

    def test_nothing_cached_changes_nothing(self, table):
        rows = table.rows_view().copy()
        assert table.evict(np.array([99, -1], dtype=np.int64)) == 0
        assert table.evict(np.array([], dtype=np.int64)) == 0
        assert CacheTable(2, 1).evict(np.array([0, 1])) == 0
        assert table.ids.tolist() == [10, 20, 30]
        assert np.array_equal(table.rows_view(), rows)

    def test_freed_slots_admit_a_full_install(self, table):
        assert table.evict(np.array([30, 10, 20])) == 3
        assert len(table) == 0 and not table.rows_view().any()
        table.install(np.array([1, 2, 3, 4]), np.ones((4, 2)))
        assert len(table) == 4

    # Members, then eviction rounds: id lists over absent, duplicate and
    # negative ids, or ``None`` for "every current member, twice".
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda capacity: st.tuples(
                st.just(capacity),
                st.lists(st.integers(0, 20), unique=True, max_size=capacity),
            )
        ),
        st.lists(
            st.one_of(st.none(), st.lists(st.integers(-3, 23), max_size=10)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_equals_reinstalling_the_survivors(self, members, rounds):
        """Held to the re-``install`` kept in
        ``tests/reference/graph_mutation_reference.py``."""
        capacity, members = members
        ids = np.asarray(members, dtype=np.int64)
        rows = np.arange(2 * len(ids), dtype=np.float64).reshape(-1, 2) + 0.5
        ours, theirs = CacheTable(capacity, 2), CacheTable(capacity, 2)
        holder = HotEmbeddingCache(capacity, 1, 2, 1, sync_period=1, local_lr=1.0)
        holder._tables["entity"] = theirs
        for t in (ours, theirs):
            t.install(ids, rows)
        probe = np.arange(-3, 24, dtype=np.int64)
        for evict in rounds:
            if evict is None:
                evict = np.repeat(ours.ids, 2)
            evict = np.asarray(evict, dtype=np.int64)
            assert ours.evict(evict) == invalidate_ids_reference(
                holder, "entity", evict
            )
            assert ours.ids.tobytes() == theirs.ids.tobytes()
            assert ours.rows_view().tobytes() == theirs.rows_view().tobytes()
            assert ours._slot.tobytes() == theirs._slot.tobytes()
            assert len(ours) == len(theirs)
            assert ours._ledger.resident == theirs._ledger.resident == len(ours)
            for got, want in zip(ours.lookup(probe), theirs.lookup(probe)):
                assert np.array_equal(got, want)


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
