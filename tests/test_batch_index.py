"""``MiniBatch.index``: a batch resolves each of its ids once.

The index is one ``np.unique(..., return_inverse=True)`` over the batch's
entity occurrences (heads, tails, negatives) and one over its relations,
taken at first ask and cached; taking it freezes the batch.
``compute_batch_gradients`` maps the index's positions onto the caller's
ids through the unique ids alone.  Checked here over every sampler that
builds batches — both strategies, a false-negative filter, and the
hard-negative cache at mix 0, 0.5 and 1, whose in-place rewrites must all
land before the index is taken.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compute import compute_batch_gradients
from repro.kg.graph import HEAD, REL, TAIL, KnowledgeGraph
from repro.models import get_model
from repro.models.losses import get_loss
from repro.sampling.cache import CachedNegativeSampler
from repro.sampling.negative import MiniBatch, NegativeSampler
from tests.reference import compute_reference as reference
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
        return graph, sampler.corrupt(positives)
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
    for _ in range(MIX_CALLS[mix]):
        reached = sampler.mix_fraction()
        batch = sampler.corrupt(positives)
    assert reached == mix
    return graph, batch


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
