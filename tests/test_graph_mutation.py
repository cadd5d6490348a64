"""The carried-forward triple index against the row scan it replaced.

``KnowledgeGraph.mutated`` finds the rows an update deletes by probing the
update's keys in the graph's own index and hands the new graph an index
derived from it.  ``tests/reference/graph_mutation_reference.py`` keeps
the previous path verbatim — index the deletes, probe every row, mask,
concatenate, re-validate, re-index — and this suite chains updates through
both:

* every child's ``triples`` byte-equal, dead rows equal to the old keep
  mask, the carried index equal to one built from scratch, the parent and
  its index untouched — over duplicate rows, absent and duplicated deletes,
  duplicate inserts, empty halves, vocabulary growth across key strides,
  and vocabularies whose keys only fit exact strides or no int64 at all;
* ids outside the vocabulary are absent (the reference aliased them onto
  real triples), pinned on the two cases that found the bug;
* the sampler's epoch walk follows dead rows as it followed keep masks;
* a rotation stream trained with the false-negative filter on — the one
  path that reads a child's index every update — is bit-equal to the
  reference trainer, and the filter really covers what was inserted;
* the same stream with the filter off — the bench's shape, where nothing
  reads the global graph until the run is over — is bit-equal to the
  reference too, the global graph included once it is read.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TrainingConfig
from repro.core.trainer import make_trainer
from repro.kg.datasets import generate_dataset
from repro.kg.graph import (
    HEAD,
    REL,
    TAIL,
    KnowledgeGraph,
    TripleIndex,
    _key_strides,
    drop_rows,
    renumber_rows,
)
from repro.sampling.minibatch import EpochSampler
from repro.sampling.negative import NegativeSampler
from repro.stream import OnlineTrainer, OnlineTrainResult, make_stream
from tests.reference.evaluation_reference import triple_set
from tests.reference.graph_mutation_reference import (
    OnlineTrainerReference,
    TripleIndexReference,
    apply_update_reference,
    mutated_reference,
)

# Vocabularies per key-space regime: power-of-two strides fit; only the
# exact sizes fit; nothing fits and the index is a set.
POW2 = (6, 2)
EXACT = (3 * 2**20, 2**19 + 1)
SET_BACKED = (2**31, 4)


def test_regimes_are_what_they_are_named():
    assert _key_strides(*POW2) == (4, 8)
    assert _key_strides(*EXACT) == (EXACT[1], EXACT[0])
    assert _key_strides(*SET_BACKED) is None


# ------------------------------------------------------------------ helpers


def _triples(rng, count, n_ent, n_rel, pool=6):
    """``count`` rows over a small id pool (so duplicates and repeated
    deletes happen) that also reaches the top of the vocabulary."""
    ents = np.concatenate([np.arange(min(pool, n_ent)), [n_ent - 1]])
    rels = np.concatenate([np.arange(min(2, n_rel)), [n_rel - 1]])
    return np.stack(
        [rng.choice(ents, count), rng.choice(rels, count), rng.choice(ents, count)],
        axis=1,
    ).astype(np.int64)


def _fresh_index(graph: KnowledgeGraph) -> TripleIndex:
    return TripleIndex(graph.triples, graph.num_entities, graph.num_relations)


def _assert_index_is_fresh(graph: KnowledgeGraph, probes: np.ndarray) -> None:
    """The graph's (carried) index answers as one built from its rows."""
    carried, fresh = graph.triple_index(), _fresh_index(graph)
    columns = probes[:, HEAD], probes[:, REL], probes[:, TAIL]
    assert np.array_equal(
        carried.contains_batch(*columns), fresh.contains_batch(*columns)
    )
    assert len(carried) == len(fresh)
    truth = [tuple(row) for row in graph.triples.tolist()]
    for probe in probes[:8].tolist():
        rows = [i for i, row in enumerate(truth) if row == tuple(probe)]
        assert carried.rows_of([probe]).tolist() == rows
        assert carried.contains(*probe) == bool(rows)


@st.composite
def update_chains(draw):
    """A seed graph and >= 20 updates, as ``(regime, seed, shapes)``."""
    regime = draw(st.sampled_from([POW2, POW2, EXACT, SET_BACKED]))
    shapes = draw(
        st.lists(
            st.tuples(
                st.integers(0, 5),  # inserts
                st.integers(0, 5),  # deletes
                st.integers(0, 3),  # new entities
                st.integers(0, 1),  # new relations
            ),
            min_size=20,
            max_size=24,
        )
    )
    return regime, draw(st.integers(0, 10_000)), shapes


class TestChainedUpdates:
    @given(chain=update_chains())
    @settings(max_examples=40, deadline=None)
    def test_children_equal_the_reference(self, chain):
        (n_ent, n_rel), seed, shapes = chain
        rng = np.random.default_rng(seed)
        graph = KnowledgeGraph(
            _triples(rng, int(rng.integers(0, 12)), n_ent, n_rel), n_ent, n_rel
        )
        if rng.random() < 0.5:
            graph.triple_index()  # a warm memo and a cold one both carry
        for n_ins, n_del, new_ent, new_rel in shapes:
            n_ent, n_rel = n_ent + new_ent, n_rel + new_rel
            inserts = _triples(rng, n_ins, n_ent, n_rel)
            if n_ins > 1 and rng.random() < 0.3:
                inserts[-1] = inserts[0]  # a duplicate within one update
            deletes = _triples(rng, n_del, n_ent, n_rel)
            if n_del and len(graph) and rng.random() < 0.7:
                deletes[0] = graph.triples[rng.integers(len(graph))]
            before = graph.triples.copy()
            probes = np.concatenate(
                [before, inserts, deletes, _triples(rng, 4, n_ent, n_rel)]
            )
            answers_before = graph.triple_index().contains_batch(
                probes[:, HEAD], probes[:, REL], probes[:, TAIL]
            )

            child, dead = graph.mutated_with_dead_rows(
                inserts, deletes, n_ent, n_rel
            )
            expected = mutated_reference(graph, inserts, deletes, n_ent, n_rel)

            assert child.triples.dtype == np.int64
            assert child.triples.tobytes() == expected.triples.tobytes()
            assert (child.num_entities, child.num_relations) == (n_ent, n_rel)
            # Dead rows are the reference's keep mask (its per-worker block
            # probes the old rows against an index of the deletes).
            drop = TripleIndexReference(deletes, n_ent, n_rel)
            keep = ~drop.contains_batch(
                before[:, HEAD], before[:, REL], before[:, TAIL]
            )
            assert np.array_equal(dead, np.flatnonzero(~keep))
            _assert_index_is_fresh(child, probes)
            # Copy-on-extend: the parent's rows and answers did not move.
            assert graph.triples.tobytes() == before.tobytes()
            assert np.array_equal(
                graph.triple_index().contains_batch(
                    probes[:, HEAD], probes[:, REL], probes[:, TAIL]
                ),
                answers_before,
            )
            graph = child

    def test_growth_past_every_key_space(self):
        """One chain from power-of-two strides through exact ones to the
        set: each child answers as a freshly built index does."""
        rng = np.random.default_rng(3)
        graph = KnowledgeGraph(_triples(rng, 10, *POW2), *POW2)
        for n_ent, n_rel in (
            POW2, (9, 5), EXACT, (EXACT[0] + 1, EXACT[1]), (2**31, EXACT[1])
        ):
            inserts = _triples(rng, 3, n_ent, n_rel)
            deletes = graph.triples[:2]
            child = graph.mutated(inserts, deletes, n_ent, n_rel)
            expected = mutated_reference(graph, inserts, deletes, n_ent, n_rel)
            assert child.triples.tobytes() == expected.triples.tobytes()
            _assert_index_is_fresh(
                child, np.concatenate([graph.triples, inserts])
            )
            graph = child
        assert graph.triple_index()._strides is None

    def test_nothing_matched_returns_self(self, tiny_graph):
        same, dead = tiny_graph.mutated_with_dead_rows(deletes=[[5, 1, 5]])
        assert same is tiny_graph and len(dead) == 0

    def test_only_inserts_are_range_checked_with_the_old_errors(self, tiny_graph):
        with pytest.raises(ValueError, match="num_entities=6 smaller than max"):
            tiny_graph.mutated(inserts=[[0, 0, 6]])
        with pytest.raises(ValueError, match="num_relations=2 smaller than max"):
            tiny_graph.mutated(inserts=[[0, 2, 0]])
        with pytest.raises(ValueError, match="non-negative"):
            tiny_graph.mutated(inserts=[[0, 0, -1]])
        with pytest.raises(ValueError, match="cannot shrink"):
            tiny_graph.mutated(num_relations=1)


# ------------------------------------------------- out-of-vocabulary needles


class TestOutOfVocabularyIsAbsent:
    """``(0, 0, 7)`` and ``(0, 2, -5)`` encode to the key of ``(0, 1, 1)``
    under the exact strides ``(R, E) = (2, 6)``."""

    triples = [[0, 1, 1], [2, 0, 3]]

    @pytest.mark.parametrize("alias", [[0, 0, 7], [0, 2, -5]])
    def test_delete_of_an_alias_removes_nothing(self, alias):
        graph = KnowledgeGraph(self.triples, num_entities=6, num_relations=2)
        assert graph.mutated(deletes=[alias]) is graph
        # ... and the reference shows the defect it is kept with.
        assert len(mutated_reference(graph, deletes=[alias])) == 1

    @pytest.mark.parametrize("alias", [[0, 0, 7], [0, 2, -5], [6, 0, 0], [-1, 1, 1]])
    @pytest.mark.parametrize("sizes", [(6, 2), SET_BACKED])
    def test_index_probes_answer_absent(self, alias, sizes):
        index = TripleIndex(self.triples, *sizes)
        assert not index.contains(*alias)
        assert not index.contains_batch(*np.array([alias]).T)[0]
        assert len(index.rows_of([alias])) == 0
        assert index.contains(0, 1, 1)
        assert index.rows_of([alias, [0, 1, 1]]).tolist() == [0]


# ------------------------------------------------------------ array helpers


class TestRowHelpers:
    @given(
        count=st.integers(0, 40),
        seed=st.integers(0, 1000),
        width=st.sampled_from([None, 3]),
        tail=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_drop_and_renumber_match_a_mask(self, count, seed, width, tail):
        rng = np.random.default_rng(seed)
        shape = (count,) if width is None else (count, width)
        array = rng.integers(0, 100, size=shape)
        dead = np.flatnonzero(rng.random(count) < 0.3)
        extra = rng.integers(0, 100, size=(tail,) + shape[1:])
        keep = np.ones(count, dtype=bool)
        keep[dead] = False
        assert np.array_equal(
            drop_rows(array, dead, extra), np.concatenate([array[keep], extra])
        )
        assert np.array_equal(drop_rows(array, dead), array[keep])
        expected = np.cumsum(keep, dtype=np.int64) - 1
        expected[~keep] = -1
        assert np.array_equal(renumber_rows(count, dead), expected)


# ------------------------------------------------------------ sampler remap


class TestEpochWalkFollowsDeadRows:
    @given(
        rows=st.integers(1, 40),
        seed=st.integers(0, 1000),
        steps=st.integers(0, 12),
        appended=st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_order_and_cursor_as_the_keep_mask(
        self, rows, seed, steps, appended
    ):
        rng = np.random.default_rng(seed)
        graph = KnowledgeGraph(_triples(rng, rows, *POW2), *POW2)
        keep = rng.random(rows) < 0.7
        child = KnowledgeGraph(
            np.concatenate([graph.triples[keep], _triples(rng, appended, *POW2)]),
            *POW2,
        )

        def walk():
            sampler = EpochSampler(
                graph, 4, NegativeSampler(POW2[0], num_negatives=2, seed=1), seed=seed
            )
            for _ in range(steps):
                sampler.next_batch()
            return sampler

        new, ref = walk(), walk()
        new.apply_update(child, np.flatnonzero(~keep))
        apply_update_reference(ref, child, keep_mask=keep)
        assert np.array_equal(new._order, ref._order)
        assert new._order.dtype == ref._order.dtype
        assert new._cursor == ref._cursor
        if child.num_triples:
            assert np.array_equal(
                new.next_batch().positives, ref.next_batch().positives
            )

    def test_dead_rows_outside_the_old_graph_are_rejected(self, tiny_graph):
        sampler = EpochSampler(
            tiny_graph, 4, NegativeSampler(6, num_negatives=2, seed=1), seed=0
        )
        with pytest.raises(ValueError, match="dead_rows"):
            sampler.apply_update(tiny_graph, np.array([3, 8]))


# ------------------------------------------- filtered stream, end to end


def rotation_runs(filter_false_negatives: bool) -> dict:
    """One hetkg-a rotation stream trained by the live trainer ("new")
    and by the reference ("ref"): ``{name: (online, result, stream)}``."""
    graph = generate_dataset("fb15k", scale=0.012, seed=7)
    config = TrainingConfig(
        model="transe", dim=8, epochs=3, batch_size=32, num_negatives=4,
        num_machines=2, cache_capacity=128, sync_period=4, dps_window=8,
        filter_false_negatives=filter_false_negatives, seed=5,
    )
    out = {}
    for name, cls in (("new", OnlineTrainer), ("ref", OnlineTrainerReference)):
        trainer = make_trainer("hetkg-a", config)
        trainer.setup(graph)
        stream = make_stream(
            "rotation", graph,
            steps=config.epochs * trainer.steps_per_epoch, seed=22,
            interval=2, inserts_per_update=16,
        )
        online = cls(trainer, stream)
        out[name] = (online, online.train(graph), stream)
    return out


class TestFilteredRotationStream:
    """No other test or golden refreshes the false-negative filter under
    a stream: every update hands each sampler the new graph's index."""

    @pytest.fixture(scope="class")
    def runs(self):
        return rotation_runs(filter_false_negatives=True)

    def test_bit_equal_to_the_reference_trainer(self, runs):
        (new, new_result, stream), (ref, ref_result, _) = runs["new"], runs["ref"]
        assert new_result.updates_applied == len(stream.updates) > 20
        assert stream.total_deletes > 0
        for field in (
            "mean_loss", "sim_time", "cache_hit_ratio", "triples_inserted",
            "triples_deleted", "cache_rows_invalidated", "adaptive_rebuilds",
        ):
            assert getattr(new_result, field) == getattr(ref_result, field), field
        assert new_result.comm_totals == ref_result.comm_totals
        for kind in ("entity", "relation"):
            assert np.array_equal(
                new.trainer.server.store.table(kind),
                ref.trainer.server.store.table(kind),
            )
        assert new.graph.triples.tobytes() == ref.graph.triples.tobytes()
        for ours, theirs in zip(new.trainer.workers, ref.trainer.workers):
            assert (
                ours.sampler.graph.triples.tobytes()
                == theirs.sampler.graph.triples.tobytes()
            )
            assert np.array_equal(ours.sampler._order, theirs.sampler._order)
            assert (
                ours.sampler.negative_sampler.false_negative_leaks
                == theirs.sampler.negative_sampler.false_negative_leaks
            )

    def test_inserted_triples_are_never_drawn_as_negatives(self, runs):
        online, _, stream = runs["new"]
        truth = triple_set(online.graph)
        inserted = np.concatenate([u.inserts for u in stream.updates])
        alive = np.array([tuple(row) in truth for row in inserted.tolist()])
        assert alive.sum() > 100
        inserted = inserted[alive]
        unfiltered = 0
        for worker in online.trainer.workers:
            negatives = worker.sampler.negative_sampler
            # Every worker filters against the whole post-stream graph.
            assert negatives._filter_index is online.graph.triple_index()
            assert negatives._filter_index.contains_batch(*inserted.T).all()
            sampler = copy.deepcopy(worker.sampler)  # the runs are shared
            leaks = sampler.negative_sampler.false_negative_leaks
            collisions = self._true_negatives(sampler, truth, batches=40)
            # Only a corruption that ran out of resample retries may stay
            # true, and the sampler counts each of those.
            assert collisions == sampler.negative_sampler.false_negative_leaks - leaks
            # The same walk without the filter does hit true triples.
            sampler.negative_sampler._filter_index = None
            unfiltered += self._true_negatives(sampler, truth, batches=40)
        assert unfiltered > 0

    @staticmethod
    def _true_negatives(sampler, truth, batches):
        count = 0
        for _ in range(batches):
            batch = sampler.next_batch()
            for (h, r, t), row, head in zip(
                batch.positives.tolist(),
                batch.neg_entities.tolist(),
                batch.corrupt_head.tolist(),
            ):
                count += sum(
                    ((e, r, t) if head else (h, r, e)) in truth for e in row
                )
        return count


class TestUnfilteredRotationStream:
    """The bench's shape: with the filter off no sampler reads the global
    graph during the run, yet every output — and the global graph once it
    is read — equals the reference trainer's, which builds it eagerly."""

    @pytest.fixture(scope="class")
    def runs(self):
        return rotation_runs(filter_false_negatives=False)

    def test_bit_equal_to_the_reference_trainer(self, runs):
        (new, new_result, stream), (ref, ref_result, _) = runs["new"], runs["ref"]
        assert new_result.updates_applied == len(stream.updates) > 20
        assert new_result.entities_added > 0
        assert new_result.cache_rows_invalidated > 0
        for field in dataclasses.fields(OnlineTrainResult):
            assert getattr(new_result, field.name) == getattr(
                ref_result, field.name
            ), field.name
        for kind in ("entity", "relation"):
            assert np.array_equal(
                new.trainer.server.store.table(kind),
                ref.trainer.server.store.table(kind),
            )
            assert np.array_equal(
                new.trainer.server.optimizer.state[kind],
                ref.trainer.server.optimizer.state[kind],
            )
        for ours, theirs in zip(new.trainer.workers, ref.trainer.workers):
            assert (
                ours.sampler.graph.triples.tobytes()
                == theirs.sampler.graph.triples.tobytes()
            )
            assert np.array_equal(ours.sampler._order, theirs.sampler._order)
            assert ours.sampler._cursor == theirs.sampler._cursor
            for kind in ("entity", "relation"):
                assert np.array_equal(
                    ours.cache.cached_ids(kind), theirs.cache.cached_ids(kind)
                )
            assert np.array_equal(
                ours.strategy._cached_entities, theirs.strategy._cached_entities
            )
            assert np.array_equal(
                ours.strategy._cached_relations,
                theirs.strategy._cached_relations,
            )
        # Read last: the fold of every applied update, as the reference
        # built it update by update.
        graph = new.graph
        assert graph.num_entities == ref.graph.num_entities
        assert graph.num_relations == ref.graph.num_relations
        assert graph.triples.tobytes() == ref.graph.triples.tobytes()


def test_unfiltered_run_folds_the_global_graph_only_when_read(monkeypatch):
    """With the filter off, ``train()`` edits no global graph; reading
    ``graph`` afterwards folds every applied update in, once each."""
    graph = generate_dataset("fb15k", scale=0.012, seed=7)
    config = TrainingConfig(
        model="transe", dim=8, epochs=1, batch_size=32, num_negatives=4,
        num_machines=2, cache_capacity=128, seed=5,
    )
    trainer = make_trainer("hetkg-d", config)
    trainer.setup(graph)
    stream = make_stream(
        "rotation", graph, steps=trainer.steps_per_epoch, seed=22,
        interval=2, inserts_per_update=16,
    )
    online = OnlineTrainer(trainer, stream)
    calls = []
    mutated = KnowledgeGraph.mutated

    def counted(self, *args, **kwargs):
        calls.append(self)
        return mutated(self, *args, **kwargs)

    monkeypatch.setattr(KnowledgeGraph, "mutated", counted)
    result = online.train(graph)
    assert result.updates_applied == len(stream.updates) > 0
    assert calls == []
    folded = online.graph
    assert len(calls) == result.updates_applied
    assert calls[0] is graph
    assert online.graph is folded and len(calls) == result.updates_applied
