"""Filtered ranks equal the set-based oracle, as integers.

``repro.core.evaluation`` filters each block of candidates with one
``known.triple_index()`` probe.  The per-query loop it replaced, which
filtered through a Python set of the known triples (``FilterIndex``), is
kept verbatim in ``tests/reference/evaluation_reference.py``.  Here both
rank the queries of hypothesis-drawn graphs, and the head and tail rank
lists must be equal element for element, on the full and the sampled
candidate paths, for a translational and two bilinear models, when the
known graph:

* holds duplicate triples and self-loops (every drawn graph does);
* has fewer entities and relations than the tables, as after stream
  growth, with queries that name the grown ids;
* is empty (down to an empty vocabulary), or is ``None`` (raw ranking).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import (
    _ranks_batched,
    _ranks_sampled_batched,
    evaluate_link_prediction,
)
from repro.kg.graph import KnowledgeGraph
from repro.models import get_model
from tests.reference.evaluation_reference import (
    evaluate_link_prediction_reference,
    full_ranks_reference,
    ranks_reference,
    triple_set,
)

#: One translational and two bilinear scoring functions.
MODELS = ["transe", "distmult", "complex"]

#: What ``known`` is: the graph itself, the graph under tables grown past
#: it, an empty graph, or no filter at all.
KNOWN = ["graph", "grown", "empty", "none"]


@st.composite
def worlds(draw, kind: str):
    """``(known, queries, n_ent, n_rel)``: the tables have ``n_ent`` /
    ``n_rel`` rows, the queries name any of them."""
    k_ent = draw(st.integers(2, 9))
    k_rel = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, k_ent - 1),
                st.integers(0, k_rel - 1),
                st.integers(0, k_ent - 1),
            ),
            min_size=1,
            max_size=30,
        )
    )
    h, r, _ = rows[0]
    rows += [rows[0], (h, r, h)]  # a duplicate and a self-loop, always
    graph = KnowledgeGraph(rows, num_entities=k_ent, num_relations=k_rel)
    n_ent, n_rel = k_ent, k_rel
    if kind == "grown":
        n_ent += draw(st.integers(1, 4))
        n_rel += draw(st.integers(0, 1))
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_ent - 1),
                st.integers(0, n_rel - 1),
                st.integers(0, n_ent - 1),
            ),
            max_size=8,
        )
    )
    picked = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=12))
    queries = np.asarray(picked + extra, dtype=np.int64).reshape(-1, 3)
    if kind == "empty":
        known = KnowledgeGraph(
            np.empty((0, 3), dtype=np.int64),
            num_entities=draw(st.integers(0, k_ent)),
            num_relations=draw(st.integers(0, k_rel)),
        )
    else:
        known = None if kind == "none" else graph
    return known, queries, n_ent, n_rel


def tables(model, n_ent: int, n_rel: int, seed: int):
    """Small-integer embeddings: many exact score ties, so a candidate the
    filter should have dropped is one that would have counted."""
    rng = np.random.default_rng(seed)
    entity = rng.integers(-2, 3, size=(n_ent, model.entity_dim)).astype(np.float64)
    relation = rng.integers(-2, 3, size=(n_rel, model.relation_dim)).astype(np.float64)
    return entity, relation


def assert_int_lists_equal(got: list[int], want: list[int]) -> None:
    assert all(type(rank) is int for rank in got)
    assert got == want


@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("kind", KNOWN)
class TestRanksEqualTheSetOracle:
    @given(data=st.data(), seed=st.integers(0, 2**16), block_rows=st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_full_ranking(self, model_name, kind, data, seed, block_rows):
        known, queries, n_ent, n_rel = data.draw(worlds(kind))
        model = get_model(model_name, dim=3)
        entity, relation = tables(model, n_ent, n_rel, seed)
        for replace_head in (True, False):
            got = _ranks_batched(
                model, entity, relation, queries, replace_head, known,
                block_rows=block_rows,
            )
            want = full_ranks_reference(
                model, entity, relation, queries, replace_head, known
            )
            assert_int_lists_equal(got, want)

    @given(data=st.data(), seed=st.integers(0, 2**16), block_rows=st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_sampled_ranking(self, model_name, kind, data, seed, block_rows):
        known, queries, n_ent, n_rel = data.draw(worlds(kind))
        num_candidates = data.draw(st.integers(1, n_ent - 1))
        model = get_model(model_name, dim=3)
        entity, relation = tables(model, n_ent, n_rel, seed)
        got_head, got_tail = _ranks_sampled_batched(
            model, entity, relation, queries, num_candidates, known,
            np.random.default_rng(seed), block_rows=block_rows,
        )
        want_head, want_tail = ranks_reference(
            model, entity, relation, queries, known, num_candidates,
            np.random.default_rng(seed),
        )
        assert_int_lists_equal(got_head, want_head)
        assert_int_lists_equal(got_tail, want_tail)

    @given(data=st.data(), seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_evaluate_link_prediction(self, model_name, kind, data, seed):
        """The public call: same query subsample and candidate draws, the
        same metrics to the last bit."""
        known, queries, n_ent, n_rel = data.draw(worlds(kind))
        kwargs = dict(
            known=known,
            max_queries=data.draw(st.none() | st.integers(1, 6)),
            num_candidates=data.draw(st.none() | st.integers(1, n_ent)),
            seed=seed,
        )
        model = get_model(model_name, dim=3)
        entity, relation = tables(model, n_ent, n_rel, seed)
        test = KnowledgeGraph(queries, num_entities=n_ent, num_relations=n_rel)
        got = evaluate_link_prediction(model, entity, relation, test, **kwargs)
        want = evaluate_link_prediction_reference(model, entity, relation, test, **kwargs)
        assert got == want


def test_the_filter_moves_ranks(small_graph):
    """Not vacuous: on a generated graph the filter lowers ranks, and the
    probe drops exactly the candidates the oracle's set holds."""
    model = get_model("transe", dim=4)
    entity, relation = tables(model, small_graph.num_entities, small_graph.num_relations, 3)
    queries = small_graph.triples[:40]
    for replace_head in (True, False):
        raw = _ranks_batched(model, entity, relation, queries, replace_head, None)
        filtered = _ranks_batched(model, entity, relation, queries, replace_head, small_graph)
        assert filtered == full_ranks_reference(
            model, entity, relation, queries, replace_head, small_graph
        )
        assert all(f <= r for f, r in zip(filtered, raw))
        assert sum(filtered) < sum(raw)
    known = triple_set(small_graph)
    _, r, t = (int(x) for x in queries[0])
    heads = np.arange(small_graph.num_entities)
    probe = small_graph.triple_index().contains_batch(
        heads, np.full_like(heads, r), np.full_like(heads, t)
    )
    assert probe.tolist() == [(int(e), r, t) in known for e in heads]
