"""Filtered link-prediction evaluation: MRR, MR, Hits@k.

The paper's protocol (§VI-A): for each test triple, corrupt the head and
the tail against candidate entities, rank the true entity by model score,
and report Mean Reciprocal Rank, Mean Rank, and Hits@{1,3,10} under the
*filtered* setting — candidates that form a known true triple are excluded
from the ranking.

For large graphs the candidate set can be a uniform sample of entities
(plus the true one); this keeps evaluation tractable and, because every
compared system is scored the same way, preserves relative orderings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.models.base import KGEModel
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive


@dataclass
class LinkPredictionResult:
    """Aggregated ranking metrics over all queries.

    ``head_mrr``/``tail_mrr`` break the score down by corruption side —
    tail prediction is usually easier on relation-skewed graphs, and the
    gap is a useful diagnostic.
    """

    mrr: float
    mr: float
    hits: dict[int, float] = field(default_factory=dict)
    num_queries: int = 0
    head_mrr: float = 0.0
    tail_mrr: float = 0.0

    def as_row(self) -> list[float]:
        """[MRR, Hits@1, Hits@10] — the columns of the paper's tables."""
        return [self.mrr, self.hits.get(1, 0.0), self.hits.get(10, 0.0)]


def check_known(known: object) -> None:
    """Reject a ``known`` that is neither ``None`` nor a graph (a set of
    triples passed where the graph goes) before any work is done."""
    if known is not None and not isinstance(known, KnowledgeGraph):
        raise TypeError(
            f"known must be a KnowledgeGraph or None, got {type(known).__name__}"
        )


def _ranks_batched(
    model: KGEModel,
    entity_table: np.ndarray,
    relation_table: np.ndarray,
    triples: np.ndarray,
    replace_head: bool,
    known: KnowledgeGraph | None,
    block_rows: int = 200_000,
) -> list[int]:
    """Full-candidate ranks for one corruption side, many queries at once.

    Scores ``(queries x all entities)`` through the model in flat blocks of
    at most ``block_rows`` rows, avoiding the per-query Python loop, and
    filters each block with one ``known.triple_index()`` probe over its
    candidate triples.  Ranks are bit-identical to one ``_rank_one_side``
    call per query (scores are the same per-row arithmetic, only the
    batching differs; the oracle lives in
    ``tests/reference/evaluation_reference.py``).
    """
    n_ent = len(entity_table)
    ranks: list[int] = []
    queries_per_block = max(1, block_rows // n_ent)
    for start in range(0, len(triples), queries_per_block):
        chunk = triples[start : start + queries_per_block]
        q = len(chunk)
        h = chunk[:, 0]
        r = chunk[:, 1]
        t = chunk[:, 2]
        cand = np.tile(np.arange(n_ent), q)
        rep = np.repeat(np.arange(q), n_ent)
        rels = r[rep]
        heads, tails = (cand, t[rep]) if replace_head else (h[rep], cand)
        scores = model.score(
            entity_table[heads], relation_table[rels], entity_table[tails]
        ).reshape(q, n_ent)

        true_entity = h if replace_head else t
        true_scores = scores[np.arange(q), true_entity]
        if known is not None:
            drop = known.triple_index().contains_batch(heads, rels, tails)
            scores[drop.reshape(q, n_ent)] = -np.inf
        # The true entity never counts (its score, even dropped, is never
        # > its own score taken before the drop).
        better = (scores > true_scores[:, None]).sum(axis=1)
        ranks.extend((1 + better).tolist())
    return ranks


def _ranks_sampled_batched(
    model: KGEModel,
    entity_table: np.ndarray,
    relation_table: np.ndarray,
    triples: np.ndarray,
    num_candidates: int,
    known: KnowledgeGraph | None,
    rng: np.random.Generator,
    block_rows: int = 200_000,
) -> tuple[list[int], list[int]]:
    """Sampled-candidate ranks for both sides, scored in blocks.

    The reference path draws one candidate sample per (query, side) pair
    interleaved — head then tail per triple — and that draw order is part
    of the determinism contract.  This kernel therefore keeps *exactly*
    the reference's RNG consumption (same per-query ``rng.choice`` calls,
    same order) in a cheap first pass, then batches all model scoring:
    candidate rows are padded to a rectangle with each query's true entity
    (pads fall inside the true-entity mask, so they never affect ranks)
    and scored in flat blocks of at most ``block_rows`` rows.

    Ranks are bit-identical to the per-query reference: per-row score
    arithmetic is unchanged, filtering applies the same ``-inf`` masking,
    and the strictly-greater count ignores every true-entity copy.
    """
    num_entities = len(entity_table)
    per_side: dict[bool, list[np.ndarray]] = {True: [], False: []}
    for h, _, t in triples:
        for replace_head in (True, False):
            true_entity = int(h) if replace_head else int(t)
            sampled = rng.choice(num_entities, size=num_candidates, replace=False)
            per_side[replace_head].append(
                np.unique(np.append(sampled, true_entity))
            )
    # True-triple scores for every query, one batched call (the reference
    # scores the same (h, r, t) rows one at a time).
    true_scores = model.score(
        entity_table[triples[:, 0]],
        relation_table[triples[:, 1]],
        entity_table[triples[:, 2]],
    )
    head_ranks = _score_padded_candidates(
        model, entity_table, relation_table, triples, per_side[True],
        True, known, true_scores, block_rows,
    )
    tail_ranks = _score_padded_candidates(
        model, entity_table, relation_table, triples, per_side[False],
        False, known, true_scores, block_rows,
    )
    return head_ranks, tail_ranks


def _score_padded_candidates(
    model: KGEModel,
    entity_table: np.ndarray,
    relation_table: np.ndarray,
    triples: np.ndarray,
    cand_lists: list[np.ndarray],
    replace_head: bool,
    known: KnowledgeGraph | None,
    true_scores: np.ndarray,
    block_rows: int,
) -> list[int]:
    """Rank one corruption side from per-query candidate id lists."""
    q_total = len(triples)
    width = max(len(c) for c in cand_lists)
    true_entities = triples[:, 0] if replace_head else triples[:, 2]
    cand = np.empty((q_total, width), dtype=np.int64)
    for i, c in enumerate(cand_lists):
        cand[i, : len(c)] = c
        cand[i, len(c):] = true_entities[i]  # pads; masked by the true rule
    ranks: list[int] = []
    queries_per_block = max(1, block_rows // width)
    for start in range(0, q_total, queries_per_block):
        stop = min(start + queries_per_block, q_total)
        chunk = cand[start:stop]
        q = stop - start
        rep = np.repeat(np.arange(start, stop), width)
        flat = chunk.ravel()
        rels = triples[rep, 1]
        heads, tails = (flat, triples[rep, 2]) if replace_head else (triples[rep, 0], flat)
        scores = model.score(
            entity_table[heads], relation_table[rels], entity_table[tails]
        ).reshape(q, width)
        block_true = true_scores[start:stop]
        not_true = chunk != true_entities[start:stop, None]
        if known is not None:
            drop = known.triple_index().contains_batch(heads, rels, tails)
            scores[drop.reshape(q, width)] = -np.inf
        better = ((scores > block_true[:, None]) & not_true).sum(axis=1)
        ranks.extend((1 + better).tolist())
    return ranks


def evaluate_link_prediction(
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
    """Evaluate embeddings on ``test`` with head and tail corruption.

    Parameters
    ----------
    entity_table / relation_table:
        Global embedding matrices (from the parameter server).
    known:
        The graph of all known true triples (train+valid+test) for
        filtered ranking, probed through its :meth:`KnowledgeGraph.triple_index`;
        ``None`` gives raw ranking.
    max_queries:
        Evaluate at most this many test triples (uniform subsample).
    num_candidates:
        Sample this many negative candidate entities per query instead of
        ranking against all entities (plus the true one).

    Scoring runs through the block kernels :func:`_ranks_batched` /
    :func:`_ranks_sampled_batched`; the per-query loop they replaced is the
    equivalence oracle in ``tests/reference/evaluation_reference.py``.
    """
    check_known(known)
    for name, value in (("max_queries", max_queries), ("num_candidates", num_candidates)):
        if value is not None:
            check_positive(name, value)
    rng = make_rng(seed)
    triples = test.triples
    if max_queries is not None and len(triples) > max_queries:
        idx = rng.choice(len(triples), size=max_queries, replace=False)
        triples = triples[idx]

    num_entities = len(entity_table)
    full_ranking = num_candidates is None or num_candidates >= num_entities
    if not len(triples):
        return _aggregate([], [], hits_at)
    if full_ranking:
        head_ranks = _ranks_batched(
            model, entity_table, relation_table, triples, True, known
        )
        tail_ranks = _ranks_batched(
            model, entity_table, relation_table, triples, False, known
        )
    else:
        head_ranks, tail_ranks = _ranks_sampled_batched(
            model,
            entity_table,
            relation_table,
            triples,
            num_candidates,
            known,
            rng,
        )
    return _aggregate(head_ranks, tail_ranks, hits_at)


def _aggregate(
    head_ranks: list[int], tail_ranks: list[int], hits_at: tuple[int, ...]
) -> LinkPredictionResult:
    """Fold per-side rank lists into the metric dataclass."""
    ranks = head_ranks + tail_ranks
    if not ranks:
        return LinkPredictionResult(mrr=0.0, mr=0.0, hits={k: 0.0 for k in hits_at})
    ranks_arr = np.asarray(ranks, dtype=np.float64)
    head_arr = np.asarray(head_ranks, dtype=np.float64)
    tail_arr = np.asarray(tail_ranks, dtype=np.float64)
    return LinkPredictionResult(
        mrr=float((1.0 / ranks_arr).mean()),
        mr=float(ranks_arr.mean()),
        hits={k: float((ranks_arr <= k).mean()) for k in hits_at},
        num_queries=len(ranks),
        head_mrr=float((1.0 / head_arr).mean()) if len(head_arr) else 0.0,
        tail_mrr=float((1.0 / tail_arr).mean()) if len(tail_arr) else 0.0,
    )
