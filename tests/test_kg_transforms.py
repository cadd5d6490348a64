"""Tests for repro.kg.transforms."""

import numpy as np

from repro.kg.graph import HEAD, REL, TAIL
from repro.kg.transforms import relabel_by_degree


class TestRelabelByDegree:
    def test_id_zero_is_hottest(self, small_graph):
        out, mapping = relabel_by_degree(small_graph)
        degrees = out.entity_degrees()
        assert degrees[0] == degrees.max()
        # Degrees must be non-increasing in the new id order.
        assert np.all(np.diff(degrees) <= 0)

    def test_structure_preserved(self, tiny_graph):
        out, mapping = relabel_by_degree(tiny_graph)
        assert out.num_triples == tiny_graph.num_triples
        # Triple-by-triple, the mapping must connect old to new ids.
        for old, new in zip(tiny_graph.triples, out.triples):
            assert mapping[old[HEAD]] == new[HEAD]
            assert mapping[old[TAIL]] == new[TAIL]
            assert old[REL] == new[REL]

    def test_mapping_is_permutation(self, small_graph):
        _, mapping = relabel_by_degree(small_graph)
        assert sorted(mapping.tolist()) == list(range(small_graph.num_entities))
