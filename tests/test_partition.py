"""Tests for repro.partition (base, random, METIS, quality)."""

import numpy as np
import pytest

from repro.kg.graph import HEAD, KnowledgeGraph
from repro.partition.base import Partition, assign_triples
from repro.partition.metis import MetisPartitioner
from repro.partition.quality import balance, cut_fraction, edge_cut
from repro.partition.random_partition import RandomPartitioner


class TestPartitionObject:
    def test_entities_and_triples_of(self, tiny_graph):
        part = assign_triples(tiny_graph, np.array([0, 0, 0, 1, 1, 1]), 2)
        assert set(part.entities_of(0)) == {0, 1, 2}
        # Triples follow the head entity.
        for idx in part.triples_of(1):
            assert tiny_graph.triples[idx, HEAD] in (3, 4, 5)

    def test_part_sizes(self, tiny_graph):
        part = assign_triples(tiny_graph, np.array([0, 0, 1, 1, 1, 1]), 2)
        assert list(part.part_sizes()) == [2, 4]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Partition(np.array([0, 3]), np.array([0]), k=2)

    def test_wrong_length_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="entries"):
            assign_triples(tiny_graph, np.array([0, 1]), 2)


class TestRandomPartitioner:
    def test_balanced(self, small_graph):
        part = RandomPartitioner(seed=0).partition(small_graph, 4)
        sizes = part.part_sizes()
        assert sizes.max() - sizes.min() <= 1

    def test_covers_all_entities(self, small_graph):
        part = RandomPartitioner(seed=0).partition(small_graph, 3)
        assert part.part_sizes().sum() == small_graph.num_entities

    def test_k1(self, small_graph):
        part = RandomPartitioner(seed=0).partition(small_graph, 1)
        assert np.all(part.entity_part == 0)

    def test_invalid_k(self, small_graph):
        with pytest.raises(ValueError):
            RandomPartitioner().partition(small_graph, 0)


class TestMetisPartitioner:
    @pytest.fixture(scope="class")
    def metis_part(self, small_graph):
        return MetisPartitioner(seed=0).partition(small_graph, 4)

    def test_every_entity_assigned(self, small_graph, metis_part):
        assert len(metis_part.entity_part) == small_graph.num_entities
        assert metis_part.part_sizes().sum() == small_graph.num_entities

    def test_balance_within_tolerance(self, metis_part):
        # Default imbalance is 5%; allow slack for integer rounding.
        assert balance(metis_part) <= 1.10

    def test_beats_random_on_edge_cut(self, small_graph, metis_part):
        random_part = RandomPartitioner(seed=0).partition(small_graph, 4)
        assert edge_cut(small_graph, metis_part) < edge_cut(
            small_graph, random_part
        )

    def test_k1_single_part(self, small_graph):
        part = MetisPartitioner(seed=0).partition(small_graph, 1)
        assert np.all(part.entity_part == 0)

    def test_k_at_least_entities(self):
        g = KnowledgeGraph([(0, 0, 1), (1, 0, 2)])
        part = MetisPartitioner(seed=0).partition(g, 10)
        # One entity per part; all valid ids.
        assert len(np.unique(part.entity_part)) == 3

    def test_deterministic(self, small_graph):
        a = MetisPartitioner(seed=9).partition(small_graph, 4)
        b = MetisPartitioner(seed=9).partition(small_graph, 4)
        assert np.array_equal(a.entity_part, b.entity_part)

    def test_two_cliques_separated(self):
        """Two dense cliques joined by one edge must split at the bridge."""
        triples = []
        for i in range(6):
            for j in range(i + 1, 6):
                triples.append((i, 0, j))
                triples.append((i + 6, 0, j + 6))
        triples.append((0, 0, 6))  # bridge
        g = KnowledgeGraph(np.asarray(triples), num_entities=12, num_relations=1)
        part = MetisPartitioner(seed=0).partition(g, 2)
        assert edge_cut(g, part) == 1
        left = set(part.entity_part[:6])
        right = set(part.entity_part[6:])
        assert len(left) == 1 and len(right) == 1 and left != right

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="imbalance must be >= 0"):
            MetisPartitioner(imbalance=-0.1)
        with pytest.raises(ValueError, match="coarsen_to must be >= 1"):
            MetisPartitioner(coarsen_to=0)
        with pytest.raises(ValueError, match="refine_passes must be >= 0"):
            MetisPartitioner(refine_passes=-1)


class TestQualityMetrics:
    def test_edge_cut_zero_single_part(self, small_graph):
        part = assign_triples(
            small_graph, np.zeros(small_graph.num_entities, dtype=np.int64), 1
        )
        assert edge_cut(small_graph, part) == 0
        assert cut_fraction(small_graph, part) == 0.0

    def test_cut_fraction_bounds(self, small_graph):
        part = RandomPartitioner(seed=1).partition(small_graph, 4)
        assert 0.0 <= cut_fraction(small_graph, part) <= 1.0

    def test_random_cut_near_expected(self, small_graph):
        """Random 4-way partitioning cuts ~3/4 of edges in expectation."""
        part = RandomPartitioner(seed=1).partition(small_graph, 4)
        assert 0.6 <= cut_fraction(small_graph, part) <= 0.9

    def test_balance_perfect(self):
        part = Partition(np.array([0, 0, 1, 1]), np.zeros(0, dtype=np.int64), 2)
        assert balance(part) == 1.0

    def test_empty_graph_cut(self):
        g = KnowledgeGraph(np.empty((0, 3), dtype=np.int64), num_entities=4)
        part = assign_triples(g, np.zeros(4, dtype=np.int64), 1)
        assert cut_fraction(g, part) == 0.0
