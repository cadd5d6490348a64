"""A step's id bookkeeping against the paths it replaced.

``SparseAdagrad.update`` writes its operations into two arrays, and
``HotEmbeddingCache.fetch`` / ``apply_local_gradients`` resolve each
table's ids once per step (``CacheTable.lookup`` remembers its answer for a
read-only id array).  Both are held, byte for byte, to the paths kept
verbatim in ``tests/reference/step_bookkeeping_reference.py``: the one-line
AdaGrad expression (over ``-0.0``, infinities, NaNs and duplicate ids
through ``coalesce``), and fetch/apply through ``partition_hits``/``get``
and a second ``lookup`` (over install, evict, fetch and apply sequences
that reuse read-only id arrays across membership changes).  The batch
index's oracle is in ``tests/test_batch_index.py``.

A tiered run's step never materialises a table: ``np.take`` on a
``TieredTable`` would copy all of it, which is why the AdaGrad update keeps
``table[ids]`` for the table.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.filtering import HotSet
from repro.cache.sync import HotEmbeddingCache
from repro.core.config import TrainingConfig
from repro.core.trainer import HETKGTrainer
from repro.faults.rpc import PSChannel
from repro.mp.shm import dumps, loads
from repro.optim.adagrad import SparseAdagrad
from repro.optim.sgd import SparseSGD
from repro.ps.kvstore import ShardedKVStore
from repro.ps.server import ParameterServer
from repro.tier.store import TieredTable
from repro.utils.simclock import SimClock
from tests.reference.step_bookkeeping_reference import (
    SparseAdagradReference,
    apply_local_gradients_reference,
    fetch_reference,
)

#: Values a row cell is drawn from: signed zeros, infinities, NaN and
#: ordinary magnitudes from tiny to huge.
CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e300]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


def _rows(data, n: int, width: int, label: str) -> np.ndarray:
    cells = data.draw(st.lists(CELLS, min_size=n * width, max_size=n * width), label=label)
    return np.asarray(cells, dtype=np.float64).reshape(n, width)


class TestAdagradOracle:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_updates_equal_the_one_line_expression(self, data):
        """A sequence of updates on two tables of different widths (so the
        scratch is reused at other shapes), starting from drawn tables and
        accumulators; unique ids skip ``coalesce``, repeated ones sum
        through it.  Tables and accumulators agree byte for byte."""
        lr = data.draw(st.sampled_from([0.01, 0.1, 1.0, 3.5]), label="lr")
        live, reference = SparseAdagrad(lr), SparseAdagradReference(lr)
        tables = {}
        for name, width in (("entity", data.draw(st.integers(1, 4))), ("relation", 3)):
            rows = data.draw(st.integers(1, 6), label=f"{name} rows")
            tables[name] = _rows(data, rows, width, f"{name} table")
            start = np.abs(_rows(data, rows, width, f"{name} acc"))
            for opt in (live, reference):
                opt.state_for(name, tables[name])[:] = start
        ours = {name: table.copy() for name, table in tables.items()}
        for step in range(data.draw(st.integers(1, 5), label="updates")):
            name = data.draw(st.sampled_from(sorted(tables)), label="table")
            size = len(tables[name])
            unique = data.draw(st.booleans(), label="unique")
            if unique:
                ids = np.asarray(
                    data.draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size)),
                    dtype=np.int64,
                )
            else:
                ids = np.asarray(
                    data.draw(st.lists(st.integers(0, size - 1), max_size=2 * size)),
                    dtype=np.int64,
                )
            grads = _rows(data, len(ids), tables[name].shape[1], f"grads {step}")
            reference.update(name, tables[name], ids, grads.copy(), assume_unique=unique)
            before = grads.tobytes()
            live.update(name, ours[name], ids, grads, assume_unique=unique)
            assert grads.tobytes() == before  # the gradient is not a scratch
            assert ours[name].tobytes() == tables[name].tobytes()
            assert live.state[name].tobytes() == reference.state[name].tobytes()

    def test_scratch_does_not_travel(self):
        opt = SparseAdagrad(0.1)
        opt.update("t", np.zeros((50, 4)), np.arange(50), np.ones((50, 4)))
        assert opt._scratch.size == 200
        copy = pickle.loads(pickle.dumps(opt))
        assert copy._scratch.size == 0
        assert np.array_equal(copy.state["t"], opt.state["t"])


# ------------------------------------------------------ fetch / apply oracle


def _server() -> ParameterServer:
    entity = np.arange(60, dtype=np.float64).reshape(20, 3) / 7
    relation = np.arange(15, dtype=np.float64).reshape(5, 3) / 3
    owner = np.arange(20) % 2
    return ParameterServer(
        ShardedKVStore(entity, relation, owner, num_machines=2), SparseSGD(lr=1.0)
    )


def _cache(server: ParameterServer) -> HotEmbeddingCache:
    cache = HotEmbeddingCache(6, 3, 3, 3, sync_period=100, local_lr=0.5)
    cache.server = PSChannel(server, 0, SimClock())
    return cache


def _old_optimizers(cache: HotEmbeddingCache, kinds) -> None:
    """Swap the fresh local optimizers ``install``/``invalidate_ids`` made
    for the former AdaGrad update."""
    for kind in kinds:
        cache._local_optimizers[kind] = SparseAdagradReference(cache.local_lr)


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only array owning its data, as ``BatchIndex`` arrays are."""
    array = np.array(array, dtype=np.int64)
    array.flags.writeable = False
    return array


class TestFetchApplyOracle:
    #: Id arrays the operations pick from, by index: sorted and unique (as
    #: a batch index's), half of them read-only so ``lookup``'s remembered
    #: answer is exercised across membership changes.
    POOL = st.lists(
        st.tuples(st.lists(st.integers(0, 19), unique=True, max_size=10), st.booleans()),
        min_size=1,
        max_size=3,
    )
    OPS = st.lists(
        st.tuples(
            st.sampled_from(["install", "evict", "fetch", "apply", "dup_fetch"]),
            st.sampled_from(["entity", "relation"]),
            st.integers(0, 2),
            st.lists(st.integers(0, 19), max_size=8),
        ),
        min_size=1,
        max_size=20,
    )

    @given(pool=POOL, ops=OPS, seed=st.integers(0, 1000))
    @settings(max_examples=200, deadline=None)
    def test_sequences_equal_partition_hits_get_and_two_lookups(self, pool, ops, seed):
        server = _server()
        live, reference = _cache(server), _cache(server)
        arrays = [
            _frozen(sorted(ids)) if frozen else np.array(sorted(ids), dtype=np.int64)
            for ids, frozen in pool
        ]
        rng = np.random.default_rng(seed)
        for op, kind, pick, extra in ops:
            limit = 20 if kind == "entity" else 5
            ids = arrays[pick % len(arrays)]
            ids = ids[ids < limit] if (ids >= limit).any() else ids
            if op == "install":
                hot = np.unique(np.asarray(extra, dtype=np.int64))
                hot = HotSet(entities=hot[:6], relations=hot[hot < 5][:3])
                live.install(hot)
                reference.install(hot)
                _old_optimizers(reference, ("entity", "relation"))
            elif op == "evict":
                victims = np.asarray(extra, dtype=np.int64)
                evicted = live.invalidate_ids(kind, victims)
                assert evicted == reference.invalidate_ids(kind, victims)
                if evicted:
                    _old_optimizers(reference, (kind,))
            elif op in ("fetch", "dup_fetch"):
                if op == "dup_fetch":  # repeats, unsorted, writable
                    ids = np.asarray(extra, dtype=np.int64) % limit
                got, comm = live.fetch(kind, ids)
                want, ref_comm = fetch_reference(reference, kind, ids)
                assert got.tobytes() == want.tobytes()
                assert got.shape == want.shape and got.flags.writeable
                assert vars(comm) == vars(ref_comm)
            else:
                grads = rng.normal(size=(len(ids), 3))
                live.apply_local_gradients(kind, ids, grads)
                apply_local_gradients_reference(reference, kind, ids, grads)
            for k in ("entity", "relation"):
                ours, theirs = live._tables[k], reference._tables[k]
                assert ours.rows_view().tobytes() == theirs.rows_view().tobytes()
                assert (ours.stats.hits, ours.stats.misses) == (
                    theirs.stats.hits,
                    theirs.stats.misses,
                )
                a, b = live._local_optimizers[k].state, reference._local_optimizers[k].state
                assert {n: s.tobytes() for n, s in a.items()} == {
                    n: s.tobytes() for n, s in b.items()
                }

    def test_remembered_lookup_is_the_same_answer_until_membership_changes(self):
        cache = _cache(_server())
        cache.install(HotSet(entities=np.array([3, 5]), relations=np.array([1])))
        table = cache._tables["entity"]
        ids = _frozen([1, 3, 5])
        first = table.lookup(ids)
        assert table.lookup(ids) is first
        assert not first[0].flags.writeable and not first[1].flags.writeable
        assert table.lookup(ids.copy()) is not first  # writable: not kept
        cache.install(HotSet(entities=np.array([1, 5]), relations=np.array([1])))
        mask, slots = table.lookup(ids)
        assert mask.tolist() == [True, False, True]
        assert slots.tolist() == [0, -1, 1]
        assert cache.invalidate_ids("entity", np.array([5])) == 1
        assert table.lookup(ids)[0].tolist() == [True, False, False]
        copy = pickle.loads(pickle.dumps(table))
        assert copy._last_ids is None and copy._last is None


# -------------------------------------------------------------- tier guard


class TestTieredStep:
    def test_a_step_never_materialises_a_table(self, small_split, tmp_path, monkeypatch):
        """A ``train_tiered``-shaped step (HET-KG-D, tiered tables under a
        budget, int8 cold tier) reads and writes rows through ``[]`` only."""
        trainer = HETKGTrainer(
            TrainingConfig(
                model="transe",
                dim=8,
                batch_size=16,
                num_negatives=4,
                negative_strategy="chunked",
                num_machines=2,
                cache_capacity=64,
                sync_period=4,
                dps_window=4,
                cache_strategy="dps",
                backing="tiered",
                memory_budget="24K",
                tier_block_rows=16,
                tier_cold_codec="int8",
                tier_dir=str(tmp_path / "tier"),
                seed=0,
            )
        )
        trainer.setup(small_split.train)
        calls = []
        real_materialize = TieredTable.materialize

        def materialize(self):
            calls.append("materialize")
            return real_materialize(self)

        def array(self, dtype=None, copy=None):
            calls.append("__array__")
            return real_materialize(self)

        monkeypatch.setattr(TieredTable, "materialize", materialize)
        monkeypatch.setattr(TieredTable, "__array__", array)
        try:
            for _ in range(3):
                for worker in trainer.workers:
                    worker.step()
            assert trainer.server.store.tier is not None
            assert calls == []
        finally:
            monkeypatch.undo()
            trainer.server.store.close()


# ------------------------------------------------------- what never travels


class TestScratchStaysHome:
    def test_a_stepped_worker_pickles_without_its_scratch(self, small_split):
        """What ``SharedArena.dumps`` and the mp ``done`` message send: the
        sampler's slot map arrives empty, the cache tables remember no
        lookup and the optimizers bring no scratch."""
        trainer = HETKGTrainer(
            TrainingConfig(
                model="transe", dim=8, batch_size=16, num_negatives=4,
                num_machines=2, cache_capacity=64, sync_period=4, dps_window=4,
                cache_strategy="dps", seed=0,
            )
        )
        trainer.setup(small_split.train)
        worker = trainer.workers[0]
        for _ in range(2):
            worker.step()
        slot_map = worker.sampler.negative_sampler.slot_map
        assert slot_map._slot.size > 0
        assert worker.cache._tables["entity"]._last_ids is not None
        assert trainer.server.optimizer._scratch.size > 0
        blob = dumps(worker, lambda o: "channel" if o is worker.server else None)
        back = loads(blob, lambda pid: None)
        assert back.sampler.negative_sampler.slot_map._slot.size == 0
        assert back.sampler.negative_sampler.slot_map.size_hint == slot_map.size_hint
        for table in back.cache._tables.values():
            assert table._last_ids is None and table._last is None
        for opt in back.cache._local_optimizers.values():
            assert opt._scratch.size == 0
        plain = pickle.loads(pickle.dumps(trainer.server.optimizer))
        assert plain._scratch.size == 0
