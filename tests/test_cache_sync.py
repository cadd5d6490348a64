"""Tests for the worker-side HotEmbeddingCache (Algorithm 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.filtering import HotSet
from repro.cache.sync import HotEmbeddingCache
from repro.faults.rpc import PSChannel
from repro.optim.sgd import SparseSGD
from repro.ps.kvstore import ShardedKVStore
from repro.ps.server import ParameterServer
from repro.stream.drift import AdaptiveStale
from repro.utils.simclock import SimClock
from tests.reference.graph_mutation_reference import (
    drop_ids_reference,
    invalidate_ids_reference,
)


@pytest.fixture
def server():
    entity = np.arange(20, dtype=np.float64).reshape(10, 2)
    relation = np.arange(8, dtype=np.float64).reshape(4, 2)
    owner = np.array([0] * 5 + [1] * 5)
    store = ShardedKVStore(entity, relation, owner, num_machines=2)
    return ParameterServer(store, SparseSGD(lr=1.0))


def attached(server, machine, *args, **kwargs):
    """A cache pulling through ``machine``'s channel to ``server``, as
    ``Worker.attach`` wires it."""
    cache = HotEmbeddingCache(*args, **kwargs)
    cache.server = PSChannel(server, machine, SimClock())
    return cache


@pytest.fixture
def cache(server):
    c = attached(
        server,
        0,
        entity_capacity=4,
        relation_capacity=4,
        entity_width=2,
        relation_width=2,
        sync_period=3,
        local_lr=1.0,
    )
    c.install(HotSet(entities=np.array([1, 7]), relations=np.array([0])))
    return c


class TestInstall:
    def test_pulls_current_values(self, cache, server):
        rows, comm = cache.fetch("entity", np.array([1, 7]))
        assert rows[0].tolist() == [2.0, 3.0]
        assert rows[1].tolist() == [14.0, 15.0]
        assert comm.total_bytes == 0  # both cached -> no PS traffic

    def test_install_comm_metered(self, server):
        cache = attached(server, 0, 4, 4, 2, 2, sync_period=2, local_lr=1.0)
        comm = cache.install(HotSet(np.array([1, 7]), np.array([0])))
        assert comm.total_bytes > 0
        assert comm.remote_bytes > 0  # entity 7 lives on machine 1

    def test_install_truncates_to_capacity(self, server):
        cache = attached(server, 0, 2, 2, 2, 2, sync_period=2, local_lr=1.0)
        cache.install(HotSet(np.arange(5), np.array([], dtype=np.int64)))
        assert len(cache.cached_ids("entity")) == 2

    def test_empty_hotset(self, server):
        cache = attached(server, 0, 4, 4, 2, 2, sync_period=2, local_lr=1.0)
        comm = cache.install(
            HotSet(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        )
        assert comm.total_bytes == 0


class TestFetch:
    def test_miss_pulled_from_server(self, cache):
        rows, comm = cache.fetch("entity", np.array([3]))
        assert rows[0].tolist() == [6.0, 7.0]
        assert comm.total_bytes > 0

    def test_mixed_hit_miss_order_preserved(self, cache):
        rows, _ = cache.fetch("entity", np.array([3, 1, 9]))
        assert rows[0].tolist() == [6.0, 7.0]
        assert rows[1].tolist() == [2.0, 3.0]
        assert rows[2].tolist() == [18.0, 19.0]

    def test_hit_stats_tracked(self, cache):
        cache.fetch("entity", np.array([1, 3, 7]))
        stats = cache.stats("entity")
        assert stats.hits == 2
        assert stats.misses == 1

    def test_combined_stats(self, cache):
        cache.fetch("entity", np.array([1]))
        cache.fetch("relation", np.array([0, 2]))
        combined = cache.combined_stats()
        assert combined.hits == 2
        assert combined.misses == 1


class TestLocalGradients:
    def test_cached_rows_updated_locally(self, cache):
        cache.apply_local_gradients("entity", np.array([1]), np.array([[1.0, 1.0]]))
        rows, _ = cache.fetch("entity", np.array([1]))
        # Local AdaGrad at lr=1: first step is lr * sign(grad) (up to eps).
        np.testing.assert_allclose(rows[0], [1.0, 2.0], rtol=1e-4)

    def test_uncached_ids_ignored(self, cache, server):
        before = server.store.table("entity")[3].copy()
        cache.apply_local_gradients("entity", np.array([3]), np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(server.store.table("entity")[3], before)

    def test_local_update_does_not_touch_server(self, cache, server):
        before = server.store.table("entity")[1].copy()
        cache.apply_local_gradients("entity", np.array([1]), np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(server.store.table("entity")[1], before)


class TestSync:
    def test_tick_period(self, cache):
        assert cache.tick() is None
        assert cache.tick() is None
        assert cache.tick() is not None  # third tick == sync_period

    def test_sync_refreshes_stale_values(self, cache, server):
        # Another worker pushes an update to a cached id on the server.
        server.push("entity", np.array([1]), np.array([[1.0, 1.0]]), machine=1)
        stale, _ = cache.fetch("entity", np.array([1]))
        assert stale[0].tolist() == [2.0, 3.0]  # still the old value
        cache.force_sync()
        fresh, _ = cache.fetch("entity", np.array([1]))
        assert fresh[0].tolist() == [1.0, 2.0]  # now sees the push

    def test_staleness_bounded_by_period(self, cache, server):
        """Within P iterations, a remote update must become visible."""
        server.push("entity", np.array([7]), np.array([[10.0, 10.0]]), machine=1)
        for _ in range(cache.sync_period):
            cache.tick()
        rows, _ = cache.fetch("entity", np.array([7]))
        assert rows[0].tolist() == [4.0, 5.0]

    def test_sync_resets_counter(self, cache):
        cache.tick()
        cache.force_sync()
        assert cache.tick() is None  # counter restarted

    def test_sync_comm_metered(self, cache):
        comm = cache.force_sync()
        assert comm.total_bytes > 0

    def test_install_resets_sync_counter(self, cache):
        cache.tick()
        cache.tick()
        cache.install(HotSet(np.array([2]), np.array([1])))
        assert cache.tick() is None

    def test_invalid_sync_period(self, server):
        with pytest.raises(ValueError):
            attached(server, 0, 4, 4, 2, 2, sync_period=0, local_lr=1.0)


class TestInvalidateIds:
    """Streaming eviction: survivors keep install order and values."""

    @pytest.fixture
    def full(self, server):
        cache = attached(server, 0, 6, 4, 2, 2, sync_period=3, local_lr=1.0)
        cache.install(HotSet(np.array([7, 1, 9, 3, 5]), np.array([2, 0])))
        return cache

    def test_survivors_keep_slot_order_and_rows(self, full):
        before = {i: full.fetch("entity", np.array([i]))[0][0].copy() for i in (7, 9, 5)}
        optimizer = full._local_optimizers["entity"]
        # 3 and 1 are cached, 4 is not, 3 is named twice.
        assert full.invalidate_ids("entity", np.array([3, 4, 1, 3])) == 2
        assert full.cached_ids("entity").tolist() == [7, 9, 5]
        for i, row in before.items():
            rows, comm = full.fetch("entity", np.array([i]))
            assert rows[0].tolist() == row.tolist() and comm.total_bytes == 0
        assert full._local_optimizers["entity"] is not optimizer
        # The other table is untouched.
        assert full.cached_ids("relation").tolist() == [2, 0]

    def test_nothing_cached_is_a_no_op(self, full):
        optimizer = full._local_optimizers["entity"]
        assert full.invalidate_ids("entity", np.array([4, 8])) == 0
        assert full.invalidate_ids("entity", np.array([], dtype=np.int64)) == 0
        assert full.cached_ids("entity").tolist() == [7, 1, 9, 3, 5]
        assert full._local_optimizers["entity"] is optimizer

    def test_evicting_everything(self, full):
        assert full.invalidate_ids("relation", np.array([0, 2])) == 2
        assert full.cached_ids("relation").tolist() == []
        assert full.invalidate_ids("relation", np.array([0])) == 0


# Members, then eviction rounds: id lists over absent, duplicate and
# negative ids, or ``None`` for "every current member, twice".
eviction_rounds = st.tuples(
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


class TestInvalidateIdsAgainstReinstall:
    """Eviction equals the re-``install`` of the survivors kept in
    ``tests/reference/graph_mutation_reference.py``, round after round."""

    @staticmethod
    def _cache(capacity, members):
        cache = HotEmbeddingCache(capacity, 1, 3, 1, sync_period=3, local_lr=1.0)
        ids = np.asarray(members, dtype=np.int64)
        rows = np.arange(3 * len(ids), dtype=np.float64).reshape(-1, 3) + 0.5
        cache._tables["entity"].install(ids, rows)
        return cache

    @settings(max_examples=200, deadline=None)
    @given(eviction_rounds)
    def test_same_membership_rows_and_count(self, case):
        (capacity, members), rounds = case
        ours, theirs = self._cache(capacity, members), self._cache(capacity, members)
        probe = np.arange(-3, 24, dtype=np.int64)
        for evict in rounds:
            if evict is None:
                evict = np.repeat(ours.cached_ids("entity"), 2)
            evict = np.asarray(evict, dtype=np.int64)
            ours_opt = ours._local_optimizers["entity"]
            theirs_opt = theirs._local_optimizers["entity"]
            assert ours.invalidate_ids("entity", evict) == (
                invalidate_ids_reference(theirs, "entity", evict)
            )
            assert (ours._local_optimizers["entity"] is ours_opt) == (
                theirs._local_optimizers["entity"] is theirs_opt
            )
            a, b = ours._tables["entity"], theirs._tables["entity"]
            assert a.ids.tobytes() == b.ids.tobytes()
            assert a.rows_view().tobytes() == b.rows_view().tobytes()
            assert len(a) == len(b) == a.occupied
            assert a._ledger.resident == b._ledger.resident == len(a)
            for got, want in zip(a.lookup(probe), b.lookup(probe)):
                assert np.array_equal(got, want)


class TestDropIdsAgainstIsin:
    """ADAPTIVE's record loses exactly what ``np.isin`` would drop, for
    unsorted, repeated, absent and empty inputs."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 30), unique=True, max_size=12),
        st.lists(st.integers(0, 30), unique=True, max_size=6),
        st.lists(st.integers(-2, 32), max_size=12),
        st.lists(st.integers(-2, 32), max_size=6),
    )
    def test_same_records(self, entities, relations, drop_ent, drop_rel):
        ours, theirs = AdaptiveStale(16, window=8), AdaptiveStale(16, window=8)
        for strategy in (ours, theirs):
            strategy._cached_entities = np.sort(np.asarray(entities, dtype=np.int64))
            strategy._cached_relations = np.sort(
                np.asarray(relations, dtype=np.int64)
            )
        drop_ent = np.asarray(drop_ent, dtype=np.int64)
        drop_rel = np.asarray(drop_rel, dtype=np.int64)
        ours.drop_ids(drop_ent, drop_rel)
        drop_ids_reference(theirs, drop_ent, drop_rel)
        for name in ("_cached_entities", "_cached_relations"):
            got, want = getattr(ours, name), getattr(theirs, name)
            assert got.dtype == want.dtype == np.int64
            assert got.tobytes() == want.tobytes()
