"""Tests for repro.kg.splits."""

import numpy as np
import pytest

from repro.kg.splits import split_triples
from tests.reference.evaluation_reference import triple_set


class TestSplitTriples:
    def test_sizes(self, small_graph):
        split = split_triples(small_graph, 0.8, 0.1, seed=0)
        n = small_graph.num_triples
        assert split.train.num_triples == round(n * 0.8)
        assert split.valid.num_triples == round(n * 0.1)
        total = (
            split.train.num_triples
            + split.valid.num_triples
            + split.test.num_triples
        )
        assert total == n

    def test_disjoint_and_covering(self, small_graph):
        split = split_triples(small_graph, seed=1)
        train = triple_set(split.train)
        valid = triple_set(split.valid)
        test = triple_set(split.test)
        assert not train & valid
        assert not train & test
        assert not valid & test
        # Union covers (duplicates impossible: generator dedupes).
        assert len(train | valid | test) == small_graph.num_triples

    def test_vocab_preserved(self, small_graph):
        split = split_triples(small_graph, seed=1)
        for sub in (split.train, split.valid, split.test):
            assert sub.num_entities == small_graph.num_entities
            assert sub.num_relations == small_graph.num_relations

    def test_deterministic(self, small_graph):
        a = split_triples(small_graph, seed=3)
        b = split_triples(small_graph, seed=3)
        assert np.array_equal(a.train.triples, b.train.triples)

    def test_invalid_fractions_rejected(self, small_graph):
        with pytest.raises(ValueError, match="exceed"):
            split_triples(small_graph, 0.9, 0.2)
        with pytest.raises(ValueError):
            split_triples(small_graph, -0.1, 0.1)
