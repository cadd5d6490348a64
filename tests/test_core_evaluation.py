"""Tests for the filtered link-prediction evaluation."""

import numpy as np
import pytest

from repro.core.evaluation import evaluate_link_prediction
from repro.kg.graph import KnowledgeGraph
from repro.models import TransE
from tests.reference.evaluation_reference import evaluate_link_prediction_reference


@pytest.fixture
def perfect_world():
    """Embeddings constructed so that triple (0, 0, 1) is a perfect fit and
    every other candidate tail is far away."""
    model = TransE(2, norm="l2")
    entity = np.array(
        [
            [0.0, 0.0],  # 0: head
            [1.0, 0.0],  # 1: true tail = h + r
            [5.0, 5.0],  # 2: far
            [-4.0, 3.0],  # 3: far
        ]
    )
    relation = np.array([[1.0, 0.0]])
    test = KnowledgeGraph([(0, 0, 1)], num_entities=4, num_relations=1)
    return model, entity, relation, test


class TestRanking:
    def test_perfect_embedding_rank_one(self, perfect_world):
        model, entity, relation, test = perfect_world
        result = evaluate_link_prediction(model, entity, relation, test)
        assert result.mrr == pytest.approx(1.0)
        assert result.mr == pytest.approx(1.0)
        assert result.hits[1] == 1.0

    def test_num_queries_counts_both_sides(self, perfect_world):
        model, entity, relation, test = perfect_world
        result = evaluate_link_prediction(model, entity, relation, test)
        assert result.num_queries == 2  # head + tail corruption

    def test_bad_embedding_rank_low(self):
        model = TransE(2, norm="l2")
        entity = np.array([[0.0, 0.0], [10.0, 10.0], [1.0, 0.0], [1.01, 0.0]])
        relation = np.array([[1.0, 0.0]])
        # True tail is entity 1, but entities 2 and 3 fit h + r better.
        test = KnowledgeGraph([(0, 0, 1)], num_entities=4, num_relations=1)
        result = evaluate_link_prediction(model, entity, relation, test)
        assert result.hits[1] == 0.0
        assert result.mr > 1.0

    def test_filtered_ranking_excludes_known_triples(self):
        model = TransE(2, norm="l2")
        entity = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])  # 2 ties 1
        relation = np.array([[1.0, 0.0]])
        test = KnowledgeGraph([(0, 0, 1)], num_entities=3, num_relations=1)
        raw = evaluate_link_prediction(model, entity, relation, test)
        # Entity 2 scores equal; strict inequality means rank 1 either way,
        # so use a filter set that removes a *better* candidate instead.
        entity[2] = [1.0, 0.001]  # slightly different, same distance? make it better
        entity[2] = [1.0, 0.0]
        filt = evaluate_link_prediction(
            model, entity, relation, test, filter_set={(0, 0, 2), (0, 0, 1)}
        )
        assert filt.mrr >= raw.mrr

    def test_filter_removes_strictly_better_candidate(self):
        model = TransE(2, norm="l2")
        entity = np.array([[0.0, 0.0], [0.9, 0.0], [1.0, 0.0]])
        relation = np.array([[1.0, 0.0]])
        # (0,0,1): candidate 2 fits better than the true tail 1.
        test = KnowledgeGraph([(0, 0, 1)], num_entities=3, num_relations=1)
        raw = evaluate_link_prediction(model, entity, relation, test)
        filtered = evaluate_link_prediction(
            model, entity, relation, test, filter_set={(0, 0, 2), (0, 0, 1)}
        )
        # Tail-side query: raw rank 2, filtered rank 1.
        assert filtered.mrr > raw.mrr


class TestSampling:
    @pytest.fixture
    def world(self, small_graph, rng):
        model = TransE(4)
        entity = rng.normal(size=(small_graph.num_entities, 4))
        relation = rng.normal(size=(small_graph.num_relations, 4))
        return model, entity, relation

    def test_max_queries_subsamples(self, world, small_graph):
        model, entity, relation = world
        result = evaluate_link_prediction(
            model, entity, relation, small_graph, max_queries=5, seed=0
        )
        assert result.num_queries == 10

    def test_candidate_sampling_contains_truth(self, world, small_graph):
        """Sampled candidate ranking must still be able to produce rank 1
        (the true entity is always included)."""
        model, entity, relation = world
        result = evaluate_link_prediction(
            model,
            entity,
            relation,
            small_graph,
            max_queries=10,
            num_candidates=20,
            seed=0,
        )
        assert result.mr <= 21  # rank can never exceed candidates + 1

    def test_deterministic(self, world, small_graph):
        model, entity, relation = world
        a = evaluate_link_prediction(
            model, entity, relation, small_graph, max_queries=10, num_candidates=30, seed=4
        )
        b = evaluate_link_prediction(
            model, entity, relation, small_graph, max_queries=10, num_candidates=30, seed=4
        )
        assert a.mrr == b.mrr and a.mr == b.mr

    def test_empty_test_graph(self, world):
        model, entity, relation = world
        empty = KnowledgeGraph(
            np.empty((0, 3), dtype=np.int64), num_entities=10, num_relations=2
        )
        result = evaluate_link_prediction(model, entity, relation, empty)
        assert result.mrr == 0.0 and result.num_queries == 0

    def test_random_embeddings_near_chance(self, world, small_graph):
        """Untrained embeddings must score close to the analytic chance
        MRR — guards against evaluation leaking the answer."""
        model, entity, relation = world
        result = evaluate_link_prediction(
            model, entity, relation, small_graph, max_queries=100, seed=1
        )
        n = small_graph.num_entities
        chance = (1.0 / np.arange(1, n + 1)).sum() / n
        assert result.mrr < 6 * chance

    def test_as_row(self, world, small_graph):
        model, entity, relation = world
        result = evaluate_link_prediction(
            model, entity, relation, small_graph, max_queries=5, seed=0
        )
        row = result.as_row()
        assert len(row) == 3
        assert row[0] == result.mrr


class TestSideBreakdown:
    def test_head_tail_mrrs_average_to_overall(self, small_graph, rng):
        model = TransE(4)
        entity = rng.normal(size=(small_graph.num_entities, 4))
        relation = rng.normal(size=(small_graph.num_relations, 4))
        result = evaluate_link_prediction(
            model, entity, relation, small_graph, max_queries=20, seed=0
        )
        combined = 0.5 * (result.head_mrr + result.tail_mrr)
        assert result.mrr == pytest.approx(combined, rel=1e-9)

    def test_sides_populated(self, small_graph, rng):
        model = TransE(4)
        entity = rng.normal(size=(small_graph.num_entities, 4))
        relation = rng.normal(size=(small_graph.num_relations, 4))
        result = evaluate_link_prediction(
            model, entity, relation, small_graph, max_queries=10, seed=0
        )
        assert result.head_mrr > 0
        assert result.tail_mrr > 0


class TestFilterIndex:
    def test_matches_set_semantics(self, small_graph, rng):
        """FilterIndex-based filtering must rank identically to a brute
        per-candidate set lookup."""
        from repro.core.evaluation import FilterIndex
        from tests.reference.evaluation_reference import _rank_one_side

        model = TransE(4)
        entity = rng.normal(size=(small_graph.num_entities, 4))
        relation = rng.normal(size=(small_graph.num_relations, 4))
        filter_set = small_graph.triple_set()
        index = FilterIndex(filter_set)
        candidates = np.arange(small_graph.num_entities)
        for h, r, t in small_graph.triples[:30]:
            h, r, t = int(h), int(r), int(t)
            for replace_head in (True, False):
                fast = _rank_one_side(
                    model, entity, relation, h, r, t, replace_head,
                    candidates, index,
                )
                # Brute-force reference.
                true_entity = h if replace_head else t
                scores = []
                for e in candidates:
                    e = int(e)
                    hh, tt = (e, t) if replace_head else (h, e)
                    triple = (hh, r, tt)
                    if e != true_entity and triple in filter_set:
                        scores.append(-np.inf)
                    else:
                        scores.append(
                            float(
                                model.score(
                                    entity[hh][None], relation[r][None], entity[tt][None]
                                )[0]
                            )
                        )
                scores = np.asarray(scores)
                true_score = scores[true_entity]
                mask = candidates != true_entity
                slow = 1 + int((scores[mask] > true_score).sum())
                assert fast == slow

    def test_known_entities_lookup(self):
        from repro.core.evaluation import FilterIndex

        index = FilterIndex({(1, 0, 2), (3, 0, 2), (1, 0, 4)})
        heads = index.known_entities(h=9, r=0, t=2, replace_head=True)
        assert sorted(heads.tolist()) == [1, 3]
        tails = index.known_entities(h=1, r=0, t=9, replace_head=False)
        assert sorted(tails.tolist()) == [2, 4]
        assert len(index.known_entities(5, 5, 5, True)) == 0


class TestBatchedPath:
    def test_identical_to_reference(self, small_graph, rng):
        """The vectorised full-ranking path must reproduce the reference
        implementation's metrics exactly, filtered and raw."""
        model = TransE(4)
        entity = rng.normal(size=(small_graph.num_entities, 4))
        relation = rng.normal(size=(small_graph.num_relations, 4))
        for filt in (None, small_graph.triple_set()):
            fast = evaluate_link_prediction(
                model, entity, relation, small_graph,
                filter_set=filt, max_queries=40, seed=3,
            )
            slow = evaluate_link_prediction_reference(
                model, entity, relation, small_graph,
                filter_set=filt, max_queries=40, seed=3,
            )
            assert fast.mrr == slow.mrr
            assert fast.mr == slow.mr
            assert fast.hits == slow.hits
            assert fast.head_mrr == slow.head_mrr
            assert fast.tail_mrr == slow.tail_mrr

    def test_small_blocks_equivalent(self, small_graph, rng):
        """Block boundaries must not change results."""
        from repro.core.evaluation import FilterIndex, _ranks_batched

        model = TransE(4)
        entity = rng.normal(size=(small_graph.num_entities, 4))
        relation = rng.normal(size=(small_graph.num_relations, 4))
        triples = small_graph.triples[:25]
        index = FilterIndex(small_graph.triple_set())
        big = _ranks_batched(
            model, entity, relation, triples, False, index, block_rows=10**9
        )
        tiny = _ranks_batched(
            model, entity, relation, triples, False, index,
            block_rows=small_graph.num_entities,  # one query per block
        )
        assert big == tiny

    def test_sampled_candidates_use_reference_path(self, small_graph, rng):
        """num_candidates < entities must fall back to the reference path
        (sampling semantics depend on draw order)."""
        model = TransE(4)
        entity = rng.normal(size=(small_graph.num_entities, 4))
        relation = rng.normal(size=(small_graph.num_relations, 4))
        a = evaluate_link_prediction(
            model, entity, relation, small_graph,
            max_queries=10, num_candidates=20, seed=5,
        )
        b = evaluate_link_prediction_reference(
            model, entity, relation, small_graph,
            max_queries=10, num_candidates=20, seed=5,
        )
        assert a.mrr == b.mrr
