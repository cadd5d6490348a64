"""Knowledge graph transformations.

Degree-ordered relabeling, which makes hot ids contiguous — useful for
cache-locality studies.  Transforms are pure: they return new graphs.
"""

from __future__ import annotations

import numpy as np

from repro.kg.graph import HEAD, TAIL, KnowledgeGraph


def relabel_by_degree(graph: KnowledgeGraph) -> tuple[KnowledgeGraph, np.ndarray]:
    """Renumber entities so id 0 is the highest-degree entity.

    Returns ``(relabeled_graph, old_to_new)``.  Useful for studying cache
    locality: after relabeling, "hot" means "small id".
    """
    order = np.argsort(-graph.entity_degrees(), kind="stable")
    old_to_new = np.empty(graph.num_entities, dtype=np.int64)
    old_to_new[order] = np.arange(graph.num_entities)
    triples = graph.triples.copy()
    triples[:, HEAD] = old_to_new[triples[:, HEAD]]
    triples[:, TAIL] = old_to_new[triples[:, TAIL]]
    labels = None
    if graph.entity_labels is not None:
        labels = [graph.entity_labels[int(i)] for i in order]
    return (
        KnowledgeGraph(
            triples,
            num_entities=graph.num_entities,
            num_relations=graph.num_relations,
            entity_labels=labels,
            relation_labels=graph.relation_labels,
        ),
        old_to_new,
    )
