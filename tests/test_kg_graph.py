"""Tests for repro.kg.graph."""

import numpy as np
import pytest

from repro.kg.graph import KnowledgeGraph


class TestConstruction:
    def test_basic(self, tiny_graph):
        assert tiny_graph.num_entities == 6
        assert tiny_graph.num_relations == 2
        assert tiny_graph.num_triples == 8
        assert len(tiny_graph) == 8

    def test_infers_vocab_sizes(self):
        g = KnowledgeGraph([(0, 0, 3)])
        assert g.num_entities == 4
        assert g.num_relations == 1

    def test_empty_graph(self):
        g = KnowledgeGraph(np.empty((0, 3), dtype=np.int64))
        assert g.num_triples == 0
        assert g.num_entities == 0

    def test_explicit_vocab_larger_than_ids(self):
        g = KnowledgeGraph([(0, 0, 1)], num_entities=10, num_relations=5)
        assert g.num_entities == 10

    def test_vocab_smaller_than_ids_rejected(self):
        with pytest.raises(ValueError, match="num_entities"):
            KnowledgeGraph([(0, 0, 9)], num_entities=5)
        with pytest.raises(ValueError, match="num_relations"):
            KnowledgeGraph([(0, 7, 1)], num_relations=2)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            KnowledgeGraph(np.zeros((3, 2), dtype=np.int64))

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            KnowledgeGraph([(-1, 0, 1)])

    def test_label_length_checked(self):
        with pytest.raises(ValueError, match="entity_labels"):
            KnowledgeGraph([(0, 0, 1)], entity_labels=["only-one"])

    def test_repr(self, tiny_graph):
        assert "entities=6" in repr(tiny_graph)


class TestAccess:
    def test_iter_yields_int_tuples(self, tiny_graph):
        first = next(iter(tiny_graph))
        assert first == (0, 0, 1)
        assert all(isinstance(x, int) for x in first)

    def test_contains(self, tiny_graph):
        """``in`` answers through the sorted index, out-of-vocabulary ids
        included."""
        assert (0, 0, 1) in tiny_graph
        assert (1, 1, 1) not in tiny_graph
        graph = KnowledgeGraph([(0, 0, 1), (2, 1, 0)], num_entities=3, num_relations=2)
        assert (2, 1, 0) in graph
        assert (np.int64(0), np.int64(0), np.int64(1)) in graph
        assert (0, 1, 1) not in graph
        assert (-1, 0, 1) not in graph
        assert (0, 2, 1) not in graph
        assert (0, 0, 7) not in graph


class TestStructure:
    def test_entity_degrees(self, tiny_graph):
        degrees = tiny_graph.entity_degrees()
        # Entity 0 appears in (0,0,1), (5,0,0), (0,1,3) -> degree 3.
        assert degrees[0] == 3
        assert degrees.sum() == 2 * tiny_graph.num_triples

    def test_relation_counts(self, tiny_graph):
        counts = tiny_graph.relation_counts()
        assert counts.sum() == tiny_graph.num_triples
        assert counts[0] == 5
        assert counts[1] == 3

    def test_adjacency_symmetric(self, tiny_graph):
        adj = tiny_graph.adjacency()
        for u, neighbors in adj.items():
            for v in neighbors:
                assert u in adj[v]

    def test_adjacency_skips_self_loops(self):
        g = KnowledgeGraph([(0, 0, 0), (0, 0, 1)])
        adj = g.adjacency()
        assert 0 not in adj[0]

    def test_subgraph_keeps_vocab(self, tiny_graph):
        sub = tiny_graph.subgraph(np.array([0, 2]))
        assert sub.num_triples == 2
        assert sub.num_entities == tiny_graph.num_entities
        assert sub.num_relations == tiny_graph.num_relations

    def test_subgraph_rows_match(self, tiny_graph):
        sub = tiny_graph.subgraph(np.array([3]))
        assert tuple(sub.triples[0]) == (3, 0, 4)


class TestFromLabeled:
    def test_roundtrip_ids(self):
        g = KnowledgeGraph.from_labeled_triples(
            [("alice", "knows", "bob"), ("bob", "knows", "carol")]
        )
        assert g.num_entities == 3
        assert g.num_relations == 1
        assert g.entity_labels == ["alice", "bob", "carol"]

    def test_first_seen_order(self):
        g = KnowledgeGraph.from_labeled_triples([("x", "r", "y"), ("y", "r", "x")])
        assert g.entity_labels == ["x", "y"]
        assert g.num_triples == 2
