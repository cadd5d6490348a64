"""Tests for the serving subsystem (repro.serving)."""

import numpy as np
import pytest

from repro.core.checkpoint import save_checkpoint
from repro.core.config import TrainingConfig
from repro.core.trainer import make_trainer
from repro.serving.batcher import QueryBatcher
from repro.serving.cache import ServingCache
from repro.serving.frontend import ServingFrontend
from repro.serving.metrics import latency_percentile
from repro.serving.queries import Query, QueryLog
from repro.serving.store import EmbeddingStore
from repro.serving.workload import WorkloadSpec, ZipfianWorkload, zipf_probabilities
from tests.hotness_tables import as_dict


def score_query(qid, head=0, relation=0, tail=1, arrival=0.0):
    return Query(
        qid=qid, kind="score", head=head, relation=relation, tail=tail,
        arrival=arrival,
    )


# --------------------------------------------------------------------- queries


class TestQuery:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown query kind"):
            Query(qid=0, kind="bogus", head=0, relation=0, tail=1, arrival=0.0)

    def test_score_touches_head_tail_relation(self):
        q = score_query(0, head=3, relation=1, tail=5)
        assert q.entity_ids().tolist() == [3, 5]
        assert q.relation_ids().tolist() == [1]
        assert q.num_scores == 1

    def test_prediction_touches_anchor_plus_candidates(self):
        q = Query(
            qid=0, kind="tail", head=3, relation=1, tail=None, arrival=0.0,
            candidates=(7, 8, 9),
        )
        assert q.entity_ids().tolist() == [3, 7, 8, 9]
        assert q.num_scores == 3

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("tail", "head", -1),
            ("tail", "head", 2.9),
            ("tail", "head", True),
            ("tail", "head", None),
            ("tail", "head", "3"),
            ("tail", "relation", -2),
            ("tail", "relation", np.float64(1.0)),
            ("tail", "relation", None),
            ("head", "tail", -1),
            ("head", "tail", np.bool_(True)),
            ("tail", "tail", -1),
            ("score", "head", None),
            ("score", "tail", None),
            ("score", "tail", np.int64(-4)),
            ("tail", "candidates", (7, -1)),
            ("tail", "candidates", (7, 2.5)),
            ("tail", "candidates", (False, 8)),
            ("head", "candidates", (np.int32(7), None)),
        ],
    )
    def test_rejects_ids_that_are_not_non_negative_ints(self, kind, field, value):
        """A negative id would rank the last entity's row; a float one
        would crash the frontend after the fetch was charged."""
        fields = dict(head=3, relation=1, tail=5, candidates=(7, 8))
        fields[field] = value
        with pytest.raises(ValueError, match=f"query {field} must be"):
            Query(qid=0, kind=kind, arrival=0.0, **fields)

    @pytest.mark.parametrize(
        "kind, head, tail",
        [
            ("tail", np.int64(3), None),
            ("head", None, np.int32(5)),
            ("score", np.uint8(0), 5),
            ("tail", 3, 5),
        ],
    )
    def test_accepts_numpy_ints_and_the_open_side_as_none(self, kind, head, tail):
        q = Query(
            qid=0, kind=kind, head=head, relation=np.int64(1), tail=tail,
            arrival=0.0, candidates=(np.int64(7), 8),
        )
        assert q.entity_ids().tolist() == [
            *(int(a) for a in q.anchors()), 7, 8
        ]

    def test_log_access_counts(self):
        log = QueryLog([score_query(0, head=1, tail=2), score_query(1, head=1, tail=3)])
        ent, rel = log.access_counts()
        assert as_dict(ent) == {1: 2, 2: 1, 3: 1}
        assert as_dict(rel) == {0: 2}


# --------------------------------------------------------------------- batcher


class TestQueryBatcher:
    def test_flush_on_full(self):
        batcher = QueryBatcher(max_batch=3, max_wait=1.0)
        assert batcher.offer(score_query(0, arrival=0.0)) is None
        assert batcher.offer(score_query(1, arrival=0.1)) is None
        batch = batcher.offer(score_query(2, arrival=0.2))
        assert batch is not None and [q.qid for q in batch] == [0, 1, 2]
        assert len(batcher) == 0
        assert batcher.full_flushes == 1

    def test_flush_on_timeout(self):
        batcher = QueryBatcher(max_batch=100, max_wait=0.5)
        batcher.offer(score_query(0, arrival=1.0))
        batcher.offer(score_query(1, arrival=1.2))
        assert batcher.deadline() == pytest.approx(1.5)
        assert batcher.poll(1.4) is None  # not due yet
        batch = batcher.poll(1.5)
        assert batch is not None and len(batch) == 2
        assert batcher.deadline() is None
        assert batcher.timeout_flushes == 1

    def test_drain_flushes_remainder(self):
        batcher = QueryBatcher(max_batch=10, max_wait=1.0)
        batcher.offer(score_query(0))
        assert [q.qid for q in batcher.drain()] == [0]
        assert batcher.drain() == []

    def test_rejects_out_of_order_arrivals(self):
        batcher = QueryBatcher(max_batch=10, max_wait=1.0)
        batcher.offer(score_query(0, arrival=2.0))
        with pytest.raises(ValueError, match="arrival order"):
            batcher.offer(score_query(1, arrival=1.0))

    def test_mean_batch_size(self):
        batcher = QueryBatcher(max_batch=2, max_wait=1.0)
        batcher.offer(score_query(0))
        batcher.offer(score_query(1))  # full flush of 2
        batcher.offer(score_query(2))
        batcher.drain()  # flush of 1
        assert batcher.mean_batch_size == pytest.approx(1.5)

    def test_validates_knobs(self):
        with pytest.raises(ValueError):
            QueryBatcher(max_batch=0)
        with pytest.raises(ValueError):
            QueryBatcher(max_wait=-1.0)


# ----------------------------------------------------------------------- cache


class TestServingCache:
    def test_static_pins_hot_set(self):
        log = QueryLog(
            [score_query(i, head=1, relation=0, tail=2) for i in range(10)]
            + [score_query(10, head=8, relation=1, tail=9)]
        )
        cache = ServingCache.from_query_log(log, capacity=3, entity_ratio=2 / 3)
        # Hot ids (entities 1, 2 and relation 0) always hit...
        for _ in range(3):
            assert cache.lookup("entity", np.array([1, 2])).all()
            assert cache.lookup("relation", np.array([0])).all()
        # ...cold ids never get admitted (static cache never evicts/admits).
        for _ in range(3):
            assert not cache.lookup("entity", np.array([8, 9])).any()
        assert cache.hits == 9
        assert cache.misses == 6
        assert cache.hit_ratio == pytest.approx(9 / 15)

    def test_dynamic_lru_admits_on_miss(self):
        cache = ServingCache.dynamic(capacity=4, policy="lru", entity_ratio=0.5)
        assert not cache.lookup("entity", np.array([5])).any()  # cold miss
        assert cache.lookup("entity", np.array([5])).all()  # now resident
        assert cache.label == "lru"

    def test_unknown_policy(self):
        with pytest.raises(KeyError, match="unknown policy"):
            ServingCache.dynamic(capacity=4, policy="belady")
        # Registered, but static: a pinned table never admits on a miss.
        with pytest.raises(KeyError, match="unknown policy"):
            ServingCache.dynamic(capacity=4, policy="pinned")

    def test_invalidate_empties(self):
        log = QueryLog([score_query(0, head=1, tail=2)])
        cache = ServingCache.from_query_log(log, capacity=4)
        assert cache.size() > 0
        cache.invalidate()
        assert cache.size() == 0
        assert not cache.lookup("entity", np.array([1])).any()

    def test_invalidate_rewarms_static_membership(self):
        """Regression (ISSUE 7): invalidate() used to clear the pinned
        membership permanently, flatlining the hit ratio at 0 after a
        checkpoint swap.  The membership must survive as warming: each
        hot id misses once (re-pulling the fresh row), then hits again."""
        log = QueryLog([score_query(0, head=1, tail=2)])
        cache = ServingCache.from_query_log(log, capacity=4)
        cache.invalidate()
        # One warming miss per hot id, then resident again.
        assert not cache.lookup("entity", np.array([1])).any()
        assert cache.lookup("entity", np.array([1])).all()
        assert cache.size() > 0
        # Ids that were never hot still never get admitted.
        assert not cache.lookup("entity", np.array([9])).any()
        assert not cache.lookup("entity", np.array([9])).any()

    def test_invalidate_dynamic_restarts_cold(self):
        cache = ServingCache.dynamic(capacity=4, policy="lru", entity_ratio=0.5)
        cache.lookup("entity", np.array([5]))
        assert cache.lookup("entity", np.array([5])).all()
        cache.invalidate()
        assert cache.size() == 0
        # Reactive caches re-learn from scratch: miss, then admit.
        assert not cache.lookup("entity", np.array([5])).any()
        assert cache.lookup("entity", np.array([5])).all()

    @pytest.mark.parametrize("policy", ["clock", "2q"])
    def test_new_core_policies_available(self, policy):
        cache = ServingCache.dynamic(capacity=4, policy=policy, entity_ratio=0.5)
        assert not cache.lookup("entity", np.array([5])).any()
        assert cache.lookup("entity", np.array([5])).all()
        assert cache.label == policy


# -------------------------------------------------------------------- workload


class TestZipfianWorkload:
    def test_zipf_probabilities_normalised_and_skewed(self):
        p = zipf_probabilities(100, 1.1)
        assert p.sum() == pytest.approx(1.0)
        assert p[0] > p[1] > p[50]
        uniform = zipf_probabilities(100, 0.0)
        assert uniform[0] == pytest.approx(uniform[99])

    def test_deterministic_under_fixed_seed(self):
        spec = WorkloadSpec(num_queries=200, seed=5)
        a = ZipfianWorkload(50, 7, spec).generate()
        b = ZipfianWorkload(50, 7, spec).generate()
        assert [q.head for q in a] == [q.head for q in b]
        assert [q.arrival for q in a] == [q.arrival for q in b]
        assert [q.kind for q in a] == [q.kind for q in b]
        assert [q.candidates for q in a] == [q.candidates for q in b]

    def test_different_seeds_differ(self):
        a = ZipfianWorkload(50, 7, WorkloadSpec(num_queries=200, seed=1)).generate()
        b = ZipfianWorkload(50, 7, WorkloadSpec(num_queries=200, seed=2)).generate()
        assert [q.head for q in a] != [q.head for q in b]

    def test_arrivals_monotone_nonnegative(self):
        log = ZipfianWorkload(50, 7, WorkloadSpec(num_queries=100, seed=0)).generate()
        arrivals = [q.arrival for q in log]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] >= 0.0

    def test_hot_entities_dominate_accesses(self):
        workload = ZipfianWorkload(
            200, 5, WorkloadSpec(num_queries=500, zipf_exponent=1.2, seed=3)
        )
        log = workload.generate()
        ent_counts, _ = log.access_counts()
        hot_accesses = ent_counts.mass(workload.hot_entities(0.1))
        assert hot_accesses / ent_counts.total > 0.5

    def test_from_graph_calibrates_to_graph_hotness(self, small_graph):
        from repro.kg.stats import access_frequencies

        workload = ZipfianWorkload.from_graph(
            small_graph, WorkloadSpec(num_queries=10, seed=0)
        )
        ent_counts, _ = access_frequencies(small_graph)
        assert workload.entity_order[0] == int(np.argmax(ent_counts))


# ----------------------------------------------------- checkpoint -> store


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    config = TrainingConfig(
        model="transe", dim=8, epochs=1, batch_size=32, num_negatives=4,
        num_machines=2, cache_strategy="dps", cache_capacity=64, seed=0,
    )
    from repro.kg.datasets import generate_dataset
    from repro.kg.splits import split_triples

    graph = generate_dataset("fb15k", scale=0.015, seed=7)
    split = split_triples(graph, seed=7)
    trainer = make_trainer("hetkg-d", config)
    trainer.train(split.train)
    path = tmp_path_factory.mktemp("ckpt") / "model.npz"
    save_checkpoint(trainer, path)
    return trainer, graph, path


class TestEmbeddingStore:
    def test_checkpoint_roundtrip_scores_identical(self, trained, rng):
        trainer, graph, path = trained
        store = EmbeddingStore.from_checkpoint(path, num_machines=3)
        assert store.num_entities == graph.num_entities
        assert store.num_relations == graph.num_relations

        heads = rng.integers(0, graph.num_entities, size=32)
        rels = rng.integers(0, graph.num_relations, size=32)
        tails = rng.integers(0, graph.num_entities, size=32)
        served = store.score_triples(heads, rels, tails)

        ent = trainer.server.store.table("entity")
        rel = trainer.server.store.table("relation")
        expected = trainer.model.score(ent[heads], rel[rels], ent[tails])
        np.testing.assert_allclose(served, expected)

    def test_from_trainer_shares_tables(self, trained):
        trainer, _, _ = trained
        store = EmbeddingStore.from_trainer(trainer)
        assert store.store is trainer.server.store
        assert store.model is trainer.model

    def test_geometry_mismatch_rejected(self, trained):
        _, _, path = trained
        from repro.models.base import get_model

        wrong = get_model("transe", 4)
        store = EmbeddingStore.from_checkpoint(path)
        with pytest.raises(ValueError, match="geometry"):
            EmbeddingStore(wrong, store.store)

    def test_rank_candidates_orders_by_score(self, trained):
        trainer, graph, path = trained
        store = EmbeddingStore.from_checkpoint(path)
        candidates = np.arange(min(20, graph.num_entities))
        top = store.rank_candidates(0, 0, None, candidates, k=5)
        scores = store.score_triples(
            np.full(len(candidates), 0), np.full(len(candidates), 0), candidates
        )
        best = candidates[np.lexsort((candidates, -scores))][:5]
        assert top.tolist() == best.tolist()

    @pytest.mark.parametrize("k", [0, -1, -2])
    def test_top_k_below_one_is_rejected(self, trained, k):
        """``k=-1`` used to answer all but one of the candidates, and
        ``k=0`` an empty list; a frontend took such a ``top_k`` too."""
        trainer, graph, _ = trained
        store = EmbeddingStore.from_trainer(trainer)
        candidates = np.arange(min(20, graph.num_entities))
        with pytest.raises(ValueError, match="top_k must be a positive integer"):
            store.rank_candidates(0, 0, None, candidates, k=k)
        with pytest.raises(ValueError, match="top_k must be a positive integer"):
            ServingFrontend(store, top_k=k)


# ------------------------------------------------------------------- frontend


class TestServingFrontend:
    def test_latency_percentile_helpers(self):
        assert latency_percentile([], 99) == 0.0
        assert latency_percentile([1.0, 2.0], 50) == pytest.approx(1.5)
        with pytest.raises(ValueError):
            latency_percentile([1.0], 150)

    def test_single_query_latency_accounts_wait_and_service(self, trained):
        trainer, _, _ = trained
        store = EmbeddingStore.from_trainer(trainer)
        frontend = ServingFrontend(
            store, batcher=QueryBatcher(max_batch=8, max_wait=0.01)
        )
        report = frontend.run([score_query(0, arrival=0.0)])
        assert report.num_queries == 1
        result = frontend.results[0]
        # A lone query waits out the full max_wait before dispatch.
        assert result.latency >= 0.01
        assert result.completion == pytest.approx(frontend.clock.elapsed)

    def test_answers_match_store_scores(self, trained):
        trainer, _, _ = trained
        store = EmbeddingStore.from_trainer(trainer)
        frontend = ServingFrontend(store)
        frontend.run([score_query(0, head=1, relation=0, tail=2)])
        expected = store.score_triples(
            np.array([1]), np.array([0]), np.array([2])
        )[0]
        assert frontend.results[0].answer == pytest.approx(expected)

    def test_cache_does_not_change_answers(self, trained):
        trainer, graph, _ = trained
        store = EmbeddingStore.from_trainer(trainer)
        log = ZipfianWorkload.from_graph(
            graph, WorkloadSpec(num_queries=60, seed=2)
        ).generate()
        cached = ServingFrontend(
            store, cache=ServingCache.dynamic(64, policy="lru")
        )
        plain = ServingFrontend(store)
        cached.run(log.queries)
        plain.run(log.queries)
        for a, b in zip(cached.results, plain.results):
            assert a.qid == b.qid
            if a.kind == "score":
                assert a.answer == pytest.approx(b.answer)
            else:
                assert np.array_equal(a.answer, b.answer)

    def test_each_dispatch_looks_each_table_up_once_in_unique_order(self, trained):
        """The micro-batch reaches the cache as a batch: per dispatch, one
        ``lookup`` per table, over the batch's distinct rows ascending —
        what ``np.unique`` over the per-query id arrays gives (a reactive
        cache's eviction order depends on that order)."""
        trainer, graph, _ = trained
        store = EmbeddingStore.from_trainer(trainer)
        log = ZipfianWorkload.from_graph(
            graph, WorkloadSpec(num_queries=80, seed=5)
        ).generate()
        cache = ServingCache.dynamic(32, policy="lru")
        seen = []
        lookup = cache.lookup
        cache.lookup = lambda kind, ids: seen.append((kind, ids)) or lookup(kind, ids)
        frontend = ServingFrontend(
            store, batcher=QueryBatcher(max_batch=8, max_wait=2e-3), cache=cache
        )
        frontend.run(log.queries)

        batches, members = [], {}
        for result in frontend.results:  # appended batch by batch
            if result.completion not in members:
                batches.append(members.setdefault(result.completion, []))
            members[result.completion].append(log.queries[result.qid])
        assert [kind for kind, _ in seen] == ["entity", "relation"] * len(batches)
        for batch, (_, entity_ids), (_, relation_ids) in zip(
            batches, seen[0::2], seen[1::2], strict=True
        ):
            for ids, per_query in (
                (entity_ids, [q.entity_ids() for q in batch]),
                (relation_ids, [q.relation_ids() for q in batch]),
            ):
                assert ids.dtype == np.int64
                assert np.array_equal(ids, np.unique(np.concatenate(per_query)))

    def test_hot_cache_beats_no_cache_on_zipf_stream(self, trained):
        """Acceptance: a 10%-of-entities hot set yields a measurably higher
        hit ratio and lower p99 than serving without a cache."""
        trainer, graph, _ = trained
        store = EmbeddingStore.from_trainer(trainer)
        workload = ZipfianWorkload.from_graph(
            graph,
            WorkloadSpec(num_queries=1200, zipf_exponent=1.1, seed=4),
        )
        stream = workload.generate()
        warmup = QueryLog(stream.queries[:300])
        measured = stream.queries[300:]
        capacity = max(2, int(0.1 * (store.num_entities + store.num_relations)))

        def run(cache):
            frontend = ServingFrontend(
                store,
                batcher=QueryBatcher(max_batch=32, max_wait=2e-3),
                cache=cache,
                byte_scale=25.0,
            )
            return frontend.run(measured)

        baseline = run(None)
        cached = run(ServingCache.from_query_log(warmup, capacity))
        assert baseline.hit_ratio == 0.0
        assert cached.hit_ratio > 0.2  # measurable
        assert cached.latency_p99 < baseline.latency_p99
        assert cached.comm.remote_bytes < baseline.comm.remote_bytes
        assert cached.num_queries == baseline.num_queries == len(measured)

    def test_comm_metering_matches_ownership(self, trained):
        trainer, _, _ = trained
        store = EmbeddingStore.from_trainer(trainer)
        frontend = ServingFrontend(store, machine=0)
        frontend.run([score_query(0, head=1, relation=0, tail=2)])
        comm = frontend.comm_totals
        assert comm.total_bytes > 0
        assert comm.total_messages >= 1

    def test_clock_categories_cover_elapsed(self, trained):
        trainer, graph, _ = trained
        store = EmbeddingStore.from_trainer(trainer)
        log = ZipfianWorkload.from_graph(
            graph, WorkloadSpec(num_queries=100, seed=6)
        ).generate()
        frontend = ServingFrontend(store)
        frontend.run(log.queries)
        clock = frontend.clock
        total = sum(clock.by_category.values())
        assert total == pytest.approx(clock.elapsed)
