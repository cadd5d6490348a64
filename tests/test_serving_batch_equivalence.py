"""One read per table and one ``model.score`` per dispatch == one query at a time.

The oracle is ``tests/reference/serving_answer_reference.py``: the
frontend's per-query ``_answer`` (with its ``_process`` and ``_complete``)
over the store's per-query ``score_triples`` and ``rank_candidates``,
verbatim.  For every registered model, hypothesis streams mixing score,
head and tail queries — empty and duplicate candidate sets, entity tables
built from a few distinct rows so scores tie, ``max_batch`` 1..32, with
and without a serving cache, under a shedder that truncates candidate
sets and under a fault plan that times batches out — must give the same
``QueryResult`` stream, answers compared by bytes.  Every prediction
answer is its own array (``base is None``) of ``min(k, n)`` ids.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.models.base import MODEL_REGISTRY, get_model
from repro.ps.kvstore import ShardedKVStore
from repro.serving.admission import LoadShedder
from repro.serving.batcher import QueryBatcher
from repro.serving.cache import ServingCache
from repro.serving.frontend import ServingFrontend
from repro.serving.queries import ADMITTED, Query
from repro.serving.store import EmbeddingStore
from repro.utils.rng import make_rng
from tests.reference.serving_answer_reference import PerQueryFrontend, PerQueryStore

NUM_ENTITIES, NUM_RELATIONS = 24, 4

#: A shedder that degrades early and never sheds: most queries served
#: under load score a truncated candidate prefix.
DEGRADE = dict(slo=0.002, degrade_at=0.05, enter=50.0, exit=1.0)


def tables(model, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Tables whose rows repeat a few distinct rows, so scores tie."""
    rng = make_rng(seed)
    distinct = rng.normal(0.0, 1.0, size=(5, model.entity_dim))
    entity = distinct[rng.integers(0, len(distinct), size=NUM_ENTITIES)]
    relation = rng.normal(0.0, 1.0, size=(NUM_RELATIONS, model.relation_dim))
    relation[-1] = relation[0]
    return entity, relation


@st.composite
def streams(draw):
    entity = st.integers(0, NUM_ENTITIES - 1)
    queries = []
    arrival = 0.0
    for qid in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(("score", "tail", "head")))
        arrival += draw(st.sampled_from((0.0, 1e-5, 1e-4, 3e-3)))
        candidates = tuple(draw(st.lists(entity, max_size=9)))
        if kind != "score" and draw(st.booleans()):
            candidates = ()
        queries.append(
            Query(
                qid=qid,
                kind=kind,
                head=None if kind == "head" else draw(entity),
                relation=draw(st.integers(0, NUM_RELATIONS - 1)),
                tail=None if kind == "tail" else draw(entity),
                arrival=arrival,
                candidates=candidates,
            )
        )
    return queries


def serve(frontend_cls, store, queries, max_batch, top_k, cache, shed, faults):
    frontend = frontend_cls(
        store,
        batcher=QueryBatcher(max_batch=max_batch, max_wait=1e-3),
        cache=ServingCache.dynamic(cache, policy="lru") if cache else None,
        machine=0,
        top_k=top_k,
        shedder=LoadShedder(**DEGRADE) if shed else None,
        faults=FaultPlan.parse(faults) if faults else None,
    )
    frontend.run(queries)
    return frontend


def assert_same_answer(got, want) -> None:
    assert type(got) is type(want)
    if isinstance(want, float):
        assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want))
    elif want is not None:
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    queries=streams(),
    max_batch=st.integers(1, 32),
    top_k=st.integers(1, 6),
    cache=st.sampled_from((0, 1, 8)),
    shed=st.booleans(),
    faults=st.sampled_from((None, "seed=3,retries=1x0.0001,drop=0.5")),
    dim=st.sampled_from((4, 32)),
    seed=st.integers(0, 3),
)
def test_one_dispatch_equals_one_query_at_a_time(
    model_name, queries, max_batch, top_k, cache, shed, faults, dim, seed
):
    model = get_model(model_name, dim)
    entity, relation = tables(model, seed)
    owner = np.arange(NUM_ENTITIES, dtype=np.int64) % 2
    store = EmbeddingStore(model, ShardedKVStore(entity, relation, owner, 2))
    reference = PerQueryStore(model, store.store)
    args = (queries, max_batch, top_k, cache, shed, faults)
    new = serve(ServingFrontend, store, *args)
    ref = serve(PerQueryFrontend, reference, *args)

    assert new.clock.elapsed == ref.clock.elapsed
    assert len(new.results) == len(ref.results) == len(queries)
    by_qid = {q.qid: q for q in queries}
    truncate = LoadShedder(**DEGRADE).truncated_candidates
    for got, want in zip(new.results, ref.results):
        assert {**vars(got), "answer": None} == {**vars(want), "answer": None}
        assert_same_answer(got.answer, want.answer)
        query = by_qid[got.qid]
        if got.outcome == ADMITTED and query.kind != "score":
            served = truncate(query.candidates) if got.degraded else query.candidates
            assert got.answer.base is None
            assert len(got.answer) == min(top_k, len(served))


def test_the_suite_sees_degraded_timed_out_and_tied_answers():
    """The strategies reach what the suite claims to cover: a degraded
    answer, a timed-out batch and a top-k decided by a tie."""
    model = get_model("transe", 4)
    entity, relation = tables(model, 0)
    owner = np.arange(NUM_ENTITIES, dtype=np.int64) % 2
    store = EmbeddingStore(model, ShardedKVStore(entity, relation, owner, 2))
    queries = [
        Query(qid=i, kind="tail", head=i % 3, relation=0, tail=None,
              arrival=1e-5 * i, candidates=tuple(range(NUM_ENTITIES)))
        for i in range(30)
    ]
    shed = serve(ServingFrontend, store, queries, 8, 6, 0, True, None)
    assert any(r.degraded for r in shed.results)
    faulty = serve(
        ServingFrontend, store, queries, 4, 6, 0, False,
        "seed=3,retries=1x0.0001,drop=0.5",
    )
    outcomes = {r.outcome for r in faulty.results}
    assert outcomes == {"admitted", "timeout"}
    scores = model.score(
        entity[[0] * NUM_ENTITIES], relation[[0] * NUM_ENTITIES], entity
    )
    assert len(np.unique(scores)) < NUM_ENTITIES
