"""Reference oracle: per-query, set-based link-prediction ranking.

This is ``repro.core.evaluation``'s pre-vectorization implementation, kept
verbatim (one ``_rank_one_side`` call per query) so the batched production
kernels can be checked against it bit for bit
(``tests/test_filtered_ranking_oracle.py``,
``tests/test_perf_equivalence.py``, ``tests/test_core_evaluation.py``).

Its filter is the one the library used to hold: a Python set of the known
graph's triples (:func:`triple_set`, formerly ``KnowledgeGraph.triple_set``)
turned into per-``(relation, entity)`` lists by :class:`FilterIndex`.  The
library now probes ``known.triple_index()`` instead; every entry point here
takes the same ``known`` graph and builds the set itself.  Not imported by
``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluation import LinkPredictionResult, _aggregate
from repro.kg.graph import KnowledgeGraph
from repro.models.base import KGEModel
from repro.utils.rng import make_rng


def triple_set(graph: KnowledgeGraph) -> set[tuple[int, int, int]]:
    """Set view of the graph's triples (formerly ``KnowledgeGraph.triple_set``)."""
    return {(int(h), int(r), int(t)) for h, r, t in graph.triples}


class FilterIndex:
    """Per-query lookup of known true triples for filtered ranking.

    Replaces the O(candidates) per-query membership loop with one dict
    lookup returning the (usually tiny) array of entities that complete a
    known triple for the query's fixed ``(relation, other-entity)`` pair.
    """

    def __init__(self, filter_set: set[tuple[int, int, int]]) -> None:
        heads: dict[tuple[int, int], list[int]] = {}
        tails: dict[tuple[int, int], list[int]] = {}
        for h, r, t in filter_set:
            heads.setdefault((r, t), []).append(h)
            tails.setdefault((h, r), []).append(t)
        self._heads = {k: np.asarray(v, dtype=np.int64) for k, v in heads.items()}
        self._tails = {k: np.asarray(v, dtype=np.int64) for k, v in tails.items()}
        self._empty = np.empty(0, dtype=np.int64)

    def known_entities(
        self, h: int, r: int, t: int, replace_head: bool
    ) -> np.ndarray:
        """Entities ``e`` with ``(e, r, t)`` (head side) or ``(h, r, e)``
        (tail side) in the filter set."""
        if replace_head:
            return self._heads.get((r, t), self._empty)
        return self._tails.get((h, r), self._empty)


def _filter_index(known: KnowledgeGraph | None) -> FilterIndex | None:
    return FilterIndex(triple_set(known)) if known is not None else None


def _rank_one_side(
    model: KGEModel,
    entity_table: np.ndarray,
    relation_table: np.ndarray,
    h: int,
    r: int,
    t: int,
    replace_head: bool,
    candidates: np.ndarray,
    filter_index: "FilterIndex | None",
) -> int:
    """Filtered rank of the true entity for one corruption side."""
    true_entity = h if replace_head else t
    cand_rows = entity_table[candidates]
    n = len(candidates)
    if replace_head:
        h_rows = cand_rows
        t_rows = np.broadcast_to(entity_table[t], (n, entity_table.shape[1]))
    else:
        h_rows = np.broadcast_to(entity_table[h], (n, entity_table.shape[1]))
        t_rows = cand_rows
    r_rows = np.broadcast_to(relation_table[r], (n, relation_table.shape[1]))
    scores = model.score(np.ascontiguousarray(h_rows), np.ascontiguousarray(r_rows), np.ascontiguousarray(t_rows))

    true_mask = candidates == true_entity
    true_score = model.score(
        entity_table[h][None, :], relation_table[r][None, :], entity_table[t][None, :]
    )[0]

    if filter_index is not None:
        known = filter_index.known_entities(h, r, t, replace_head)
        if len(known):
            drop = np.isin(candidates, known) & ~true_mask
            scores = np.where(drop, -np.inf, scores)
    # Rank = 1 + number of (non-true) candidates scoring strictly higher.
    better = np.count_nonzero(scores[~true_mask] > true_score)
    return 1 + int(better)


def full_ranks_reference(
    model: KGEModel,
    entity_table: np.ndarray,
    relation_table: np.ndarray,
    triples: np.ndarray,
    replace_head: bool,
    known: KnowledgeGraph | None,
) -> list[int]:
    """Per-query full-candidate ranks for one corruption side."""
    filter_index = _filter_index(known)
    candidates = np.arange(len(entity_table))
    return [
        _rank_one_side(
            model,
            entity_table,
            relation_table,
            int(h),
            int(r),
            int(t),
            replace_head,
            candidates,
            filter_index,
        )
        for h, r, t in triples
    ]


def ranks_reference(
    model: KGEModel,
    entity_table: np.ndarray,
    relation_table: np.ndarray,
    triples: np.ndarray,
    known: KnowledgeGraph | None,
    num_candidates: int | None,
    rng: np.random.Generator,
) -> tuple[list[int], list[int]]:
    """Head and tail ranks of every query, one ``_rank_one_side`` call per
    query side, candidates drawn head then tail per triple."""
    filter_index = _filter_index(known)
    num_entities = len(entity_table)
    head_ranks: list[int] = []
    tail_ranks: list[int] = []
    for h, r, t in triples:
        h, r, t = int(h), int(r), int(t)
        for replace_head in (True, False):
            true_entity = h if replace_head else t
            if num_candidates is not None and num_candidates < num_entities:
                sampled = rng.choice(num_entities, size=num_candidates, replace=False)
                candidates = np.unique(np.append(sampled, true_entity))
            else:
                candidates = np.arange(num_entities)
            rank = _rank_one_side(
                model,
                entity_table,
                relation_table,
                h,
                r,
                t,
                replace_head,
                candidates,
                filter_index,
            )
            (head_ranks if replace_head else tail_ranks).append(rank)
    return head_ranks, tail_ranks


def evaluate_link_prediction_reference(
    model: KGEModel,
    entity_table: np.ndarray,
    relation_table: np.ndarray,
    test: KnowledgeGraph,
    known: KnowledgeGraph | None = None,
    hits_at: tuple[int, ...] = (1, 3, 10),
    max_queries: int | None = None,
    num_candidates: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> LinkPredictionResult:
    """``evaluate_link_prediction`` as the per-query loop it used to be
    (formerly its ``batched=False`` path): same query subsample, same
    head-then-tail candidate draw order, one model call per query side."""
    rng = make_rng(seed)
    triples = test.triples
    if max_queries is not None and len(triples) > max_queries:
        idx = rng.choice(len(triples), size=max_queries, replace=False)
        triples = triples[idx]
    head_ranks, tail_ranks = ranks_reference(
        model, entity_table, relation_table, triples, known, num_candidates, rng
    )
    return _aggregate(head_ranks, tail_ranks, hits_at)
