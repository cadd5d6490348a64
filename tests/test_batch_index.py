"""``MiniBatch.index``: a batch resolves each of its ids once.

The index ranks the batch's entity occurrences (heads, tails, negatives)
and its relations through the sampler's ``SlotMap``, at first ask, and
caches the result; taking it freezes the batch.  It equals, byte for byte,
the ``np.unique(..., return_inverse=True)`` it replaced (kept in
``tests/reference/step_bookkeeping_reference.py``), batch after batch
through one sampler's slot map.  ``compute_batch_gradients`` maps the
index's positions onto the caller's ids through the unique ids alone.
Checked here over every sampler that builds batches — both strategies, a
false-negative filter, and the hard-negative cache at mix 0, 0.5 and 1,
whose in-place rewrites must all land before the index is taken.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compute import compute_batch_gradients
from repro.kg.graph import HEAD, REL, TAIL, KnowledgeGraph
from repro.models import get_model
from repro.models.losses import get_loss
from repro.sampling.cache import CachedNegativeSampler
from repro.sampling.negative import MiniBatch, NegativeSampler, SlotMap
from tests.reference import compute_reference as reference
from tests.reference.step_bookkeeping_reference import index_reference
from tests.test_compute_reference import assert_same_bits

#: Hard-negative cache mix fraction -> ``corrupt`` calls that reach it
#: under ``mode="auto"`` with ``anneal_steps=2`` (0, then 1/2, then 1).
MIX_CALLS = {0.0: 1, 0.5: 2, 1.0: 3}
SAMPLERS = ["independent", "chunked", "filtered"] + [f"nscaching-{m}" for m in MIX_CALLS]


def _graph(rng) -> KnowledgeGraph:
    num_entities, num_relations = int(rng.integers(4, 24)), int(rng.integers(1, 5))
    triples = np.column_stack(
        [
            rng.integers(0, num_entities, 40),
            rng.integers(0, num_relations, 40),
            rng.integers(0, num_entities, 40),
        ]
    )
    return KnowledgeGraph(triples, num_entities, num_relations)


def _batch(sampler_kind: str, seed: int, b: int, n_neg: int):
    """A batch from the named sampler over a graph small enough that ids
    repeat inside it."""
    graph, (batch,) = _batches(sampler_kind, seed, b, n_neg, 1)
    return graph, batch


def _batches(sampler_kind: str, seed: int, b: int, n_neg: int, count: int):
    """``count`` consecutive batches from one such sampler (see :func:`_draw`)."""
    rng = np.random.default_rng(seed)
    graph = _graph(rng)
    positives = graph.triples[rng.integers(0, len(graph.triples), b)]
    if not sampler_kind.startswith("nscaching"):
        sampler = NegativeSampler(
            graph.num_entities,
            num_negatives=n_neg,
            strategy="chunked" if sampler_kind == "chunked" else "independent",
            chunk_size=4,
            filter_graph=graph if sampler_kind == "filtered" else None,
            seed=seed,
        )
        return graph, _draw(sampler, positives, count)
    mix = float(sampler_kind.split("-")[1])
    sampler = CachedNegativeSampler(
        graph.num_entities,
        num_negatives=n_neg,
        chunk_size=4,
        seed=seed,
        mode="auto",
        anneal_steps=2,
        cache_size=3,
    )
    for anchor in range(graph.num_entities):
        for relation in range(graph.num_relations):
            for head in (False, True):
                sampler.seed_cache(
                    (anchor, relation, head), rng.integers(0, graph.num_entities, 3)
                )
    for _ in range(MIX_CALLS[mix] - 1):
        sampler.corrupt(positives)
    assert sampler.mix_fraction() == mix
    return graph, _draw(sampler, positives, count)


def _draw(sampler, positives, count: int) -> list[MiniBatch]:
    """``count`` batches, each but the last indexed before the next is
    drawn, so every later one ranks over what the one before left in the
    sampler's slot map."""
    batches = [sampler.corrupt(positives)]
    for _ in range(count - 1):
        batches[-1].index()
        batches.append(sampler.corrupt(positives))
    return batches


CASES = dict(
    sampler_kind=st.sampled_from(SAMPLERS),
    seed=st.integers(0, 10_000),
    b=st.sampled_from([1, 7, 32]),
    n_neg=st.sampled_from([1, 5]),
)


class TestBatchIndex:
    @given(**CASES)
    @settings(max_examples=60, deadline=None)
    def test_index_is_the_unique_ids_and_their_positions(self, sampler_kind, seed, b, n_neg):
        _, batch = _batch(sampler_kind, seed, b, n_neg)
        pos, neg = batch.positives, batch.neg_entities
        fresh_entities = np.unique(np.concatenate([pos[:, HEAD], pos[:, TAIL], neg.ravel()]))
        index = batch.index()
        assert np.array_equal(index.entities, fresh_entities)
        assert np.array_equal(index.relations, np.unique(pos[:, REL]))
        assert batch.unique_entities() is index.entities
        assert batch.unique_relations() is index.relations
        assert batch.index() is index
        occurrences = index.entities[index.entity_positions]
        assert np.array_equal(occurrences[:b], pos[:, HEAD])
        assert np.array_equal(occurrences[b : 2 * b], pos[:, TAIL])
        assert np.array_equal(occurrences[2 * b :].reshape(b, n_neg), neg)
        assert np.array_equal(index.relations[index.relation_positions], pos[:, REL])

    @given(**CASES, count=st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_index_equals_np_unique_byte_for_byte(self, sampler_kind, seed, b, n_neg, count):
        """Batch after batch through one sampler's slot map (the hard-negative
        cache's annealing moves on across them), every index array has the
        ``np.unique`` reference's dtype and bytes."""
        _, batches = _batches(sampler_kind, seed, b, n_neg, count)
        assert len({id(batch.slot_map) for batch in batches}) == 1
        for batch in batches:
            for got, want in zip(vars(batch.index()).values(), vars(index_reference(batch)).values()):
                assert got.dtype == want.dtype
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @given(
        chunks=st.lists(st.lists(st.integers(0, 3_000), max_size=40), min_size=1, max_size=6),
        hint=st.sampled_from([0, 1, 100]),
    )
    @settings(max_examples=100, deadline=None)
    def test_slot_map_ranks_like_np_unique_as_it_grows(self, chunks, hint):
        """One map over id arrays of growing and shrinking range, duplicates
        and empty arrays included: each rank is ``np.unique``'s."""
        slot_map = SlotMap(hint)
        for chunk in chunks:
            values = np.asarray(chunk, dtype=np.int64)
            unique, inverse = slot_map.rank(values)
            want_unique, want_inverse = np.unique(values, return_inverse=True)
            assert unique.tobytes() == want_unique.tobytes()
            assert inverse.dtype == want_inverse.dtype
            assert inverse.tobytes() == want_inverse.tobytes()
            assert len(slot_map._slot) >= (int(values.max()) + 1 if len(values) else 0)

    def test_grown_sampler_indexes_new_ids(self):
        sampler = NegativeSampler(4, num_negatives=2, seed=0)
        sampler.corrupt(np.array([[0, 0, 3]])).index()
        sampler.resize(50)
        batch = sampler.corrupt(np.array([[40, 0, 49]]))
        assert 49 in batch.unique_entities()
        assert np.array_equal(batch.unique_entities(), index_reference(batch).entities)

    def test_negative_ids_are_refused(self):
        batch = MiniBatch(np.array([[0, 0, -1]]), np.array([[2]]), np.array([False]))
        with pytest.raises(ValueError, match="non-negative"):
            batch.index()

    def test_the_slot_map_does_not_travel(self):
        sampler = NegativeSampler(1000, num_negatives=4, seed=0)
        sampler.corrupt(np.array([[0, 0, 999], [5, 0, 7]])).index()
        assert len(sampler.slot_map._slot) >= 1000
        copy = pickle.loads(pickle.dumps(sampler))
        assert len(copy.slot_map._slot) == 0 and copy.slot_map.size_hint == 1000
        batch = copy.corrupt(np.array([[0, 0, 999]]))
        assert batch.slot_map is copy.slot_map
        assert np.array_equal(batch.unique_entities(), index_reference(batch).entities)

    def test_an_empty_batch_has_an_empty_index(self):
        batch = NegativeSampler(10, num_negatives=3, seed=0).corrupt(np.zeros((0, 3)))
        for got, want in zip(vars(batch.index()).values(), vars(index_reference(batch)).values()):
            assert got.dtype == want.dtype and got.shape == want.shape

    @given(**CASES)
    @settings(max_examples=30, deadline=None)
    def test_a_write_after_the_index_raises(self, sampler_kind, seed, b, n_neg):
        _, batch = _batch(sampler_kind, seed, b, n_neg)
        batch.unique_entities()
        with pytest.raises(ValueError, match="read-only"):
            batch.neg_entities[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            batch.positives[0, HEAD] = 0
        with pytest.raises(ValueError, match="read-only"):
            batch.corrupt_head[0] = True
        index = batch.index()
        for array in vars(index).values():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_freezing_leaves_the_callers_arrays_writable(self):
        positives = np.array([[0, 0, 1], [2, 0, 3]])
        negatives = np.array([[4], [5]])
        corrupt_head = np.array([True, False])
        MiniBatch(positives, negatives, corrupt_head).index()
        for array in (positives, negatives, corrupt_head):
            assert array.flags.writeable

    @given(**CASES, extra=st.integers(0, 6), loss_name=st.sampled_from(["ranking", "logistic"]))
    @settings(max_examples=60, deadline=None)
    def test_superset_of_ids_matches_the_reference_byte_for_byte(
        self, sampler_kind, seed, b, n_neg, extra, loss_name
    ):
        graph, batch = _batch(sampler_kind, seed, b, n_neg)
        rng = np.random.default_rng(seed + 1)
        model = get_model("transe", 8)
        loss = get_loss(loss_name, margin=1.0)
        entity_ids = np.union1d(
            batch.unique_entities(), rng.integers(0, graph.num_entities + 4, extra)
        )
        relation_ids = np.union1d(
            batch.unique_relations(), rng.integers(0, graph.num_relations + 2, extra)
        )
        case = (
            batch,
            entity_ids,
            rng.normal(size=(len(entity_ids), model.entity_dim)),
            relation_ids,
            rng.normal(size=(len(relation_ids), model.relation_dim)),
        )
        actual = compute_batch_gradients(model, loss, *case)
        expected = reference.compute_batch_gradients(
            reference.reference_model(model), loss, *case
        )
        assert np.float64(actual.loss).tobytes() == np.float64(expected.loss).tobytes()
        assert_same_bits(actual.entity_grads, expected.entity_grads)
        assert_same_bits(actual.relation_grads, expected.relation_grads)
        untouched = ~np.isin(entity_ids, batch.unique_entities())
        assert not actual.entity_grads[untouched].any()

    @given(**CASES, which=st.sampled_from(["entity", "relation"]), pick=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_an_id_set_missing_a_batch_id_raises(
        self, sampler_kind, seed, b, n_neg, which, pick
    ):
        """Before the index, a missing id trained on its neighbour's row."""
        _, batch = _batch(sampler_kind, seed, b, n_neg)
        model = get_model("transe", 4)
        ids = {"entity": batch.unique_entities(), "relation": batch.unique_relations()}
        missing = ids[which][pick % len(ids[which])]
        ids[which] = ids[which][ids[which] != missing]
        with pytest.raises(ValueError, match=rf"{which} id {missing} is in the batch"):
            compute_batch_gradients(
                model,
                get_loss("ranking", margin=1.0),
                batch,
                ids["entity"],
                np.zeros((len(ids["entity"]), 4)),
                ids["relation"],
                np.zeros((len(ids["relation"]), 4)),
            )

    def test_missing_id_no_longer_trains_its_neighbour(self):
        """The case that used to pass silently: entity 2 is in the batch,
        the caller's ids are ``[0, 3, 4]``, and 2's gradient went to 3."""
        batch = MiniBatch(np.array([[0, 0, 2]]), np.array([[4]]), np.array([False]))
        with pytest.raises(ValueError, match="entity id 2 is in the batch"):
            compute_batch_gradients(
                get_model("transe", 4),
                get_loss("ranking", margin=1.0),
                batch,
                np.array([0, 3, 4]),
                np.ones((3, 4)),
                np.array([0]),
                np.ones((1, 4)),
            )
