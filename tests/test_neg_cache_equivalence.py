"""The array-backed hard-negative cache against its dict-based reference.

``tests/reference/neg_cache_reference.py`` is the sampler as it was before
``repro.sampling.cache`` moved to int-coded keys and whole-batch NumPy
passes.  Both are driven through the same interleaving of ``corrupt`` /
``plan_refresh`` / ``complete_refresh`` / ``resize`` / ``invalidate_ids``
and must agree on every batch, plan, cache, counter and RNG state.  The
rewrite leans on two NumPy ``Generator.integers`` batching identities;
they are pinned here by name so a NumPy upgrade that breaks them says so.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg.graph import KnowledgeGraph
from repro.sampling.cache import (
    MAX_KEY_ID,
    CachedNegativeSampler,
    decode_keys,
    encode_keys,
)
from tests.reference.neg_cache_reference import (
    CachedNegativeSampler as ReferenceSampler,
)


class _DotModel:
    """Deterministic scorer over whatever rows it is handed."""

    def score(self, h_rows, r_rows, t_rows):
        return (h_rows * t_rows).sum(axis=1) - r_rows.sum(axis=1)


def _rng_state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def _graph(seed: int, num_entities: int, num_relations: int, extra: int = 0):
    """A random graph; ``extra`` appends triples (for resize filters)."""
    rng = np.random.default_rng(seed)
    count = 3 * num_entities + extra
    triples = np.column_stack(
        [
            rng.integers(0, num_entities, count),
            rng.integers(0, num_relations, count),
            rng.integers(0, num_entities, count),
        ]
    )
    return KnowledgeGraph(
        triples, num_entities=num_entities, num_relations=num_relations
    )


def _assert_same_state(new: CachedNegativeSampler, ref: ReferenceSampler) -> None:
    assert new.cached_keys() == sorted(ref._cache)
    for key, ids in ref._cache.items():
        np.testing.assert_array_equal(new.cached(key), ids, err_msg=str(key))
    assert new.pending() == ref._touched
    assert new.num_keys == ref.num_keys
    assert new.pending_keys == ref.pending_keys
    assert new.counters() == ref.counters()
    assert new.mix_fraction() == ref.mix_fraction()
    assert new.false_negative_leaks == ref.false_negative_leaks
    assert _rng_state(new._cache_rng) == _rng_state(ref._cache_rng)
    assert _rng_state(new._rng) == _rng_state(ref._rng)


def _refresh(new, ref, table, relation_table, model=_DotModel()) -> None:
    plan_new, plan_ref = new.plan_refresh(), ref.plan_refresh()
    assert (plan_new is None) == (plan_ref is None)
    if plan_new is None:
        return
    assert plan_new.keys == plan_ref.keys
    assert len(plan_new.candidates) == len(plan_ref.candidates)
    for got, want in zip(plan_new.candidates, plan_ref.candidates):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(plan_new.entity_ids, plan_ref.entity_ids)
    np.testing.assert_array_equal(plan_new.relation_ids, plan_ref.relation_ids)
    assert plan_new.num_scores == plan_ref.num_scores
    scored_new = new.complete_refresh(
        plan_new, model, table[plan_new.entity_ids],
        relation_table[plan_new.relation_ids],
    )
    scored_ref = ref.complete_refresh(
        plan_ref, model, table[plan_ref.entity_ids],
        relation_table[plan_ref.relation_ids],
    )
    assert scored_new == scored_ref


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("corrupt"), st.integers(0, 2**16), st.integers(1, 24)),
        st.tuples(st.just("refresh")),
        st.tuples(st.just("resize"), st.integers(0, 5), st.booleans()),
        st.tuples(
            st.just("invalidate"),
            st.lists(st.integers(0, 40), max_size=3),
            st.lists(st.integers(0, 3), max_size=1),
        ),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(["nscaching", "auto"]),
    strategy=st.sampled_from(["chunked", "independent"]),
    num_entities=st.integers(6, 40),
    num_relations=st.integers(1, 4),
    num_negatives=st.integers(1, 5),
    chunk_size=st.integers(1, 8),
    cache_size=st.integers(1, 6),
    pool_size=st.integers(1, 12),
    refresh_keys=st.integers(1, 8),
    anneal_steps=st.integers(1, 6),
    temperature=st.sampled_from([1e-6, 0.5, 4.0]),
    with_filter=st.booleans(),
    with_pool=st.booleans(),
    ops=OPS,
)
def test_interleaved_operations_match_reference(
    seed, mode, strategy, num_entities, num_relations, num_negatives,
    chunk_size, cache_size, pool_size, refresh_keys, anneal_steps,
    temperature, with_filter, with_pool, ops,
):
    graph = _graph(seed, num_entities, num_relations)
    pool = (
        np.random.default_rng(seed + 1).permutation(num_entities)[
            : max(2, num_entities // 2)
        ]
        if with_pool
        else None
    )
    kwargs = dict(
        num_negatives=num_negatives, strategy=strategy, chunk_size=chunk_size,
        filter_graph=graph if with_filter else None, entity_pool=pool,
        seed=seed, mode=mode, cache_size=cache_size, pool_size=pool_size,
        refresh_keys=refresh_keys, temperature=temperature,
        anneal_steps=anneal_steps,
    )
    new = CachedNegativeSampler(num_entities, **kwargs)
    ref = ReferenceSampler(num_entities, **kwargs)
    # Rows for every id a resize below can mint.
    rows = np.random.default_rng(seed + 2)
    table = rows.normal(size=(num_entities + 200, 3))
    relation_table = rows.normal(size=(num_relations, 3))
    entities = num_entities
    for op in ops:
        if op[0] == "corrupt":
            picks = np.random.default_rng(op[1]).integers(
                0, graph.num_triples, op[2]
            )
            got = new.corrupt(graph.triples[picks])
            want = ref.corrupt(graph.triples[picks])
            np.testing.assert_array_equal(got.neg_entities, want.neg_entities)
            np.testing.assert_array_equal(got.corrupt_head, want.corrupt_head)
        elif op[0] == "refresh":
            _refresh(new, ref, table, relation_table)
        elif op[0] == "resize":
            grown = entities if with_pool else entities + op[1]
            refilter = (
                _graph(seed, grown, num_relations, extra=4 * grown)
                if op[2]
                else None
            )
            new.resize(grown, filter_graph=refilter)
            ref.resize(grown, filter_graph=refilter)
            entities = grown
        else:
            dropped_new = new.invalidate_ids(np.array(op[1]), np.array(op[2]))
            dropped_ref = ref.invalidate_ids(np.array(op[1]), np.array(op[2]))
            assert dropped_new == dropped_ref
        _assert_same_state(new, ref)


def test_training_shaped_run_matches_reference():
    """The benchmark's shape: chunked batches of 128, refresh every 4."""
    graph = _graph(3, 300, 20)
    kwargs = dict(
        num_negatives=16, filter_graph=graph, seed=5, refresh_keys=64,
    )
    new = CachedNegativeSampler(300, **kwargs)
    ref = ReferenceSampler(300, **kwargs)
    table = np.random.default_rng(9).normal(size=(300, 4))
    relation_table = np.random.default_rng(10).normal(size=(20, 4))
    order = np.random.default_rng(11).permutation(graph.num_triples)
    for step, start in enumerate(range(0, 128 * 40, 128)):
        picks = order[np.arange(start, start + 128) % graph.num_triples]
        got, want = new.corrupt(graph.triples[picks]), ref.corrupt(graph.triples[picks])
        np.testing.assert_array_equal(got.neg_entities, want.neg_entities)
        if step % 4 == 0:
            _refresh(new, ref, table, relation_table)
    assert new.counters()["hard_negatives_served"] > 0
    _assert_same_state(new, ref)


def test_nan_scores_keep_reference_order():
    """A diverged model's NaN scores rank last, in pool order, as before."""

    class _NanModel:
        def score(self, h_rows, r_rows, t_rows):
            scores = (h_rows + t_rows).sum(axis=1)
            scores[::3] = np.nan
            return scores

    new = CachedNegativeSampler(64, seed=2, cache_size=5, pool_size=12)
    ref = ReferenceSampler(64, seed=2, cache_size=5, pool_size=12)
    for key, count in [((3, 0, False), 2), ((9, 1, True), 1), ((4, 1, False), 2)]:
        new.touch(key, count)
        ref._touched[key] = count
    table = np.arange(64, dtype=float)[:, None]
    _refresh(new, ref, table, np.zeros((2, 1)), model=_NanModel())
    _assert_same_state(new, ref)


def test_rng_batching_identities():
    """NumPy contract the batched draws rest on (holds on 1.24 .. 2.4).

    ``Generator.integers`` keeps PCG64's spare 32-bit half-draw in the bit
    generator, not in the call, so (1) consecutive ``integers(0, N, p)``
    calls equal one ``integers(0, N, (k, p))`` and (2) consecutive
    ``integers(0, len_i, n)`` calls with varying bounds equal one call with
    ``high=np.repeat(lens, n)`` — element for element and in the generator
    state left behind.  If this fails, ``plan_refresh`` / ``corrupt`` must
    go back to per-key draws.
    """
    for bound in (24, 2990, 2**33):
        one, many = np.random.default_rng([5, 1]), np.random.default_rng([5, 1])
        one.integers(0, 7, 3), many.integers(0, 7, 3)  # leave a half-draw behind
        batched = one.integers(0, bound, (64, 16))
        looped = np.stack([many.integers(0, bound, 16) for _ in range(64)])
        np.testing.assert_array_equal(
            batched, looped, err_msg="identity 1: equal-bound draws do not batch"
        )
        assert _rng_state(one) == _rng_state(many), "identity 1: state differs"
    lens = np.array([1, 3, 8, 1, 2, 5, 1, 1, 7])
    one, many = np.random.default_rng([5, 1]), np.random.default_rng([5, 1])
    one.integers(0, 9, 1), many.integers(0, 9, 1)
    batched = one.integers(0, np.repeat(lens, 5))
    looped = np.concatenate([many.integers(0, n, 5) for n in lens])
    np.testing.assert_array_equal(
        batched, looped, err_msg="identity 2: varying-bound draws do not batch"
    )
    assert _rng_state(one) == _rng_state(many), "identity 2: state differs"


def test_key_codes_order_like_tuples():
    rng = np.random.default_rng(0)
    anchors = rng.integers(0, MAX_KEY_ID, 500)
    relations = rng.integers(0, MAX_KEY_ID, 500)
    heads = rng.random(500) < 0.5
    anchors[:50], relations[:50] = anchors[50:100], relations[50:100]  # ties
    codes = encode_keys(anchors, relations, heads)
    assert (codes >= 0).all()
    for got, want in zip(decode_keys(codes), (anchors, relations, heads)):
        np.testing.assert_array_equal(got, want)
    tuples = list(zip(anchors.tolist(), relations.tolist(), heads.tolist()))
    by_tuple = sorted(range(500), key=lambda i: tuples[i])
    np.testing.assert_array_equal(
        codes[np.argsort(codes, kind="stable")], codes[by_tuple]
    )


def test_uncodable_entity_range_rejected():
    with pytest.raises(ValueError, match="encode"):
        CachedNegativeSampler(MAX_KEY_ID + 1)
    sampler = CachedNegativeSampler(8)
    with pytest.raises(ValueError, match="encode"):
        sampler.resize(MAX_KEY_ID + 1)
