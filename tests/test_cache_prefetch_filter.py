"""Tests for Algorithms 1 (prefetch) and 2 (filtering)."""

import pytest

from repro.cache.filtering import filter_hot_ids
from repro.cache.prefetch import prefetch
from repro.kg.graph import HEAD, TAIL
from repro.sampling.minibatch import EpochSampler
from repro.sampling.negative import NegativeSampler
from tests.hotness_tables import as_table


@pytest.fixture
def sampler(small_graph):
    neg = NegativeSampler(small_graph.num_entities, num_negatives=4, seed=0)
    return EpochSampler(small_graph, 16, neg, seed=0)


class TestPrefetch:
    def test_batch_count(self, sampler):
        result = prefetch(sampler, 5)
        assert len(result.batches) == 5

    def test_counts_match_batches(self, sampler):
        result = prefetch(sampler, 3)
        expected_ent = 0
        expected_rel = 0
        for batch in result.batches:
            expected_ent += 2 * batch.size + batch.neg_entities.size
            expected_rel += batch.size * (1 + batch.num_negatives)
        assert result.total_entity_accesses == expected_ent
        assert result.total_relation_accesses == expected_rel

    def test_every_touched_entity_counted(self, sampler):
        result = prefetch(sampler, 2)
        touched = set()
        for batch in result.batches:
            touched.update(batch.positives[:, HEAD].tolist())
            touched.update(batch.positives[:, TAIL].tolist())
            touched.update(batch.neg_entities.ravel().tolist())
        assert set(result.entity_counts.ids.tolist()) == touched

    def test_invalid_iterations(self, sampler):
        with pytest.raises(ValueError):
            prefetch(sampler, 0)


class TestFilterHotIds:
    def test_respects_capacity(self):
        ents = {i: 10 - i for i in range(10)}
        rels = {i: 100 - i for i in range(10)}
        hot = filter_hot_ids(as_table(ents), as_table(rels), capacity=8, entity_ratio=0.25)
        assert hot.size <= 8
        assert len(hot.entities) == 2
        assert len(hot.relations) == 6

    def test_hottest_first(self):
        ents = {1: 5, 2: 50, 3: 500}
        rels = {7: 1}
        hot = filter_hot_ids(as_table(ents), as_table(rels), capacity=4, entity_ratio=0.5)
        # Two entity slots plus one spare reassigned from the short
        # relation side -> top-3 entities, hottest first.
        assert list(hot.entities) == [3, 2, 1]

    def test_deterministic_tie_break(self):
        ents = {5: 7, 3: 7, 9: 7}
        hot = filter_hot_ids(as_table(ents), as_table({}), capacity=4, entity_ratio=0.5)
        assert list(hot.entities) == [3, 5, 9]  # ties by ascending id

    def test_spare_slots_reassigned_to_entities(self):
        """Small relation vocabularies must not waste cache slots."""
        ents = {i: 100 - i for i in range(50)}
        rels = {0: 10, 1: 5}  # only 2 relations exist
        hot = filter_hot_ids(as_table(ents), as_table(rels), capacity=20, entity_ratio=0.25)
        assert len(hot.relations) == 2
        assert len(hot.entities) == 18
        assert hot.size == 20

    def test_spare_slots_reassigned_to_relations(self):
        ents = {0: 10}
        rels = {i: 100 - i for i in range(50)}
        hot = filter_hot_ids(as_table(ents), as_table(rels), capacity=20, entity_ratio=0.5)
        assert len(hot.entities) == 1
        assert len(hot.relations) == 19

    def test_frequency_only_mode(self):
        """entity_ratio=None (HET-KG-N) ranks across both kinds purely by
        frequency."""
        ents = {1: 100, 2: 1}
        rels = {1: 50, 2: 2}
        hot = filter_hot_ids(as_table(ents), as_table(rels), capacity=2, entity_ratio=None)
        assert list(hot.entities) == [1]
        assert list(hot.relations) == [1]

    def test_frequency_only_relations_can_dominate(self):
        ents = {i: 1 for i in range(10)}
        rels = {i: 1000 for i in range(10)}
        hot = filter_hot_ids(as_table(ents), as_table(rels), capacity=5, entity_ratio=None)
        assert len(hot.relations) == 5
        assert len(hot.entities) == 0

    def test_empty_counts(self):
        hot = filter_hot_ids(as_table({}), as_table({}), capacity=4)
        assert hot.size == 0

    def test_entity_ratio_extremes(self):
        ents = {i: 10 for i in range(10)}
        rels = {i: 10 for i in range(10)}
        all_rel = filter_hot_ids(as_table(ents), as_table(rels), capacity=4, entity_ratio=0.0)
        assert len(all_rel.entities) == 0 and len(all_rel.relations) == 4
        all_ent = filter_hot_ids(as_table(ents), as_table(rels), capacity=4, entity_ratio=1.0)
        assert len(all_ent.entities) == 4 and len(all_ent.relations) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            filter_hot_ids(as_table({}), as_table({}), capacity=0)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            filter_hot_ids(as_table({}), as_table({}), capacity=4, entity_ratio=1.5)
