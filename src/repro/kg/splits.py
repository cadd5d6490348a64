"""Train/validation/test splitting of a knowledge graph.

The paper uses the standard FB15k/WN18 splits and a 90/5/5 split for
Freebase-86m.  We split by shuffling triples; the training split keeps the
full entity/relation vocabularies so embeddings exist for every id that can
appear at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.utils.rng import make_rng
from repro.utils.validation import check_fraction


@dataclass
class Split:
    """The three evaluation subsets of one knowledge graph."""

    train: KnowledgeGraph
    valid: KnowledgeGraph
    test: KnowledgeGraph


def split_triples(
    graph: KnowledgeGraph,
    train_fraction: float = 0.90,
    valid_fraction: float = 0.05,
    seed: int | np.random.Generator | None = None,
) -> Split:
    """Randomly split ``graph`` into train/valid/test subsets.

    The test fraction is the remainder ``1 - train - valid``.  All three
    subsets share the parent graph's vocabularies.
    """
    check_fraction("train_fraction", train_fraction)
    check_fraction("valid_fraction", valid_fraction)
    if train_fraction + valid_fraction > 1.0:
        raise ValueError(
            "train_fraction + valid_fraction must not exceed 1.0, got "
            f"{train_fraction} + {valid_fraction}"
        )
    rng = make_rng(seed)
    n = graph.num_triples
    order = rng.permutation(n)
    n_train = int(round(n * train_fraction))
    n_valid = int(round(n * valid_fraction))
    return Split(
        train=graph.subgraph(order[:n_train]),
        valid=graph.subgraph(order[n_train : n_train + n_valid]),
        test=graph.subgraph(order[n_train + n_valid :]),
    )
