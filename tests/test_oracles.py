"""Cross-validation against independent implementations.

networkx and scipy are mature references for graph algorithms and sparse
algebra; these tests check our from-scratch implementations against them
on randomized inputs.
"""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from repro.kg.datasets import DatasetSpec, generate_dataset
from repro.kg.graph import HEAD, TAIL, KnowledgeGraph
from repro.partition.quality import edge_cut
from repro.partition.random_partition import RandomPartitioner


def _to_nx(graph: KnowledgeGraph) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(range(graph.num_entities))
    g.add_edges_from((int(h), int(t)) for h, _, t in graph.triples)
    return g


@pytest.fixture(scope="module")
def random_graph():
    spec = DatasetSpec("oracle", 120, 6, 900, seed=13)
    return generate_dataset(spec)


class TestDegreeOracle:
    def test_degrees_match_networkx(self, random_graph):
        ours = random_graph.entity_degrees()
        nxg = _to_nx(random_graph)
        # Self-loops count twice in nx.degree but twice in ours too (an
        # entity appearing as both head and tail of the same triple).
        theirs = np.array([nxg.degree(i) for i in range(random_graph.num_entities)])
        np.testing.assert_array_equal(ours, theirs)

    def test_connected_by_construction(self, random_graph):
        """The generator's spanning chain guarantees one weakly-connected
        component."""
        nxg = _to_nx(random_graph)
        assert nx.is_connected(nxg)


class TestEdgeCutOracle:
    def test_edge_cut_matches_sparse_algebra(self, random_graph):
        """Edge cut via scipy sparse indicator algebra: for assignment
        matrix Z (n x k) and directed adjacency A, the internal edge count
        is sum over parts of z_p^T A z_p; cut = total - internal."""
        part = RandomPartitioner(seed=3).partition(random_graph, 4)
        n = random_graph.num_entities
        rows = random_graph.triples[:, HEAD]
        cols = random_graph.triples[:, TAIL]
        data = np.ones(len(rows))
        adjacency = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()

        internal = 0.0
        for p in range(4):
            z = (part.entity_part == p).astype(np.float64)
            internal += z @ (adjacency @ z)
        expected_cut = random_graph.num_triples - int(round(internal))
        assert edge_cut(random_graph, part) == expected_cut


class TestPartitionBalanceOracle:
    def test_metis_cut_at_most_random_average(self, random_graph):
        """Across seeds, METIS's cut must beat the random-partition mean
        (an aggregate oracle; individual seeds could tie on tiny graphs)."""
        from repro.partition.metis import MetisPartitioner

        random_cuts = [
            edge_cut(random_graph, RandomPartitioner(seed=s).partition(random_graph, 3))
            for s in range(5)
        ]
        metis_cut = edge_cut(
            random_graph, MetisPartitioner(seed=0).partition(random_graph, 3)
        )
        assert metis_cut < np.mean(random_cuts)
