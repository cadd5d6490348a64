"""Model-agnostic forward/backward computation for one mini-batch.

Given a batch and the embedding rows for its unique ids, compute the loss
and the coalesced gradients per unique id.  Shared by every trainer (HET-KG
and both baselines), so the compared systems differ *only* in how they move
embeddings around — the learning math is identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.base import KGEModel
from repro.models.losses import Loss
from repro.sampling.negative import MiniBatch
from repro.utils.kernels import scatter_add_rows


@dataclass
class BatchGradients:
    """Loss and per-unique-id gradients for one batch."""

    loss: float
    entity_ids: np.ndarray  # (U_e,) unique, sorted
    entity_grads: np.ndarray  # (U_e, entity_dim)
    relation_ids: np.ndarray  # (U_r,) unique, sorted
    relation_grads: np.ndarray  # (U_r, relation_dim)
    num_scores: int  # positives + negatives scored (for the compute model)
    #: Negatives the loss left active: non-zero upstream or non-finite score
    #: (None: not recorded).  The backward pass runs on these alone whenever
    #: they are at most half of the negatives scored.
    active_negatives: int | None = None


def _positions(
    ids: np.ndarray, own: np.ndarray, positions: np.ndarray, table: str
) -> np.ndarray:
    """Map positions into a batch's own sorted unique ids ``own`` onto
    positions into the caller's ``ids``: one ``searchsorted`` over the
    unique ids, then one gather — or nothing, when ``ids`` *is* ``own``
    (the normal call).  Every id of ``own`` must be in ``ids`` (a miss
    would silently train on a neighbour's row)."""
    if ids is own:
        return positions
    remap = np.searchsorted(ids, own)
    if len(own) and not (len(ids) and (np.take(ids, remap, mode="clip") == own).all()):
        raise ValueError(
            f"{table} id {own[~np.isin(own, ids)][0]} is in the batch but not "
            f"in the {len(ids)} {table} ids given"
        )
    return remap[positions]


def compute_batch_gradients(
    model: KGEModel,
    loss: Loss,
    batch: MiniBatch,
    entity_ids: np.ndarray,
    entity_rows: np.ndarray,
    relation_ids: np.ndarray,
    relation_rows: np.ndarray,
) -> BatchGradients:
    """Forward + backward over ``batch``.

    Parameters
    ----------
    entity_ids / relation_ids:
        Sorted unique ids covering every id the batch touches — normally
        :meth:`MiniBatch.unique_entities` / ``unique_relations`` themselves;
        a superset gets zero rows for the ids the batch does not touch.  An
        id of the batch missing here raises ``ValueError``.
    entity_rows / relation_rows:
        Embedding rows aligned with those ids (wherever they were fetched
        from — cache or parameter server).

    Returns the loss and gradients *coalesced per unique id*, ready to push.
    """
    b = batch.size
    n_neg = batch.num_negatives

    # The batch resolved each of its ids once (MiniBatch.index); only its
    # unique ids are looked up in the caller's.
    index = batch.index()
    ent_pos = _positions(entity_ids, index.entities, index.entity_positions, "entity")
    r_pos = _positions(
        relation_ids, index.relations, index.relation_positions, "relation"
    )
    h_pos, t_pos, neg_flat = ent_pos[:b], ent_pos[b : 2 * b], ent_pos[2 * b :]

    h_rows = np.take(entity_rows, h_pos, axis=0)
    t_rows = np.take(entity_rows, t_pos, axis=0)
    r_rows = np.take(relation_rows, r_pos, axis=0)

    # ---- forward ---------------------------------------------------------
    # What each ``score`` call leaves in its dict, the ``grad`` call on the
    # same rows picks up instead of recomputing it.
    pos_shared: dict = {}
    neg_shared: dict = {}
    pos_scores = model.score(h_rows, r_rows, t_rows, pos_shared)

    # Negative triples: corrupt head or tail per row of the batch.
    corrupt_head = np.repeat(batch.corrupt_head, n_neg)  # (b * n_neg,)
    neg_h_idx = np.where(corrupt_head, neg_flat, np.repeat(h_pos, n_neg))
    neg_t_idx = np.where(corrupt_head, np.repeat(t_pos, n_neg), neg_flat)
    neg_r_idx = np.repeat(r_pos, n_neg)
    neg_h = np.take(entity_rows, neg_h_idx, axis=0)
    neg_t = np.take(entity_rows, neg_t_idx, axis=0)
    neg_r = np.take(relation_rows, neg_r_idx, axis=0)
    neg_scores = model.score(neg_h, neg_r, neg_t, neg_shared).reshape(b, n_neg)

    result = loss.compute(pos_scores, neg_scores)

    # ---- backward --------------------------------------------------------
    # Only the negatives the loss left active go back.  A row whose upstream
    # is exactly 0.0 and whose score is finite has a gradient of +-0.0 in
    # every cell; each output cell's chain starts at +0.0, which no addition
    # can turn into -0.0, and ``s + +-0.0`` is ``s`` to the bit for every
    # other ``s`` — so leaving those rows out of ``grad`` and of the scatter
    # changes no bit.  Rows with a non-finite score stay (0.0 * inf is NaN,
    # and must surface exactly where it did).  Gathering the survivors costs
    # what dropping the rest saves once more than about half survive
    # (docs/performance.md §10), so a batch like that — and a loss with no
    # exact zeros, logistic or self-adversarial — goes back whole and pays
    # only the mask.
    upstream = result.grad_neg.ravel()
    keep = np.flatnonzero((upstream != 0) | ~np.isfinite(neg_scores.ravel()))
    if 2 * len(keep) <= len(upstream):
        upstream = upstream[keep]
        neg_h_idx, neg_r_idx, neg_t_idx = neg_h_idx[keep], neg_r_idx[keep], neg_t_idx[keep]
        neg_h, neg_r, neg_t = (
            np.take(rows, keep, axis=0) for rows in (neg_h, neg_r, neg_t)
        )
        neg_shared = {
            name: np.take(rows, keep, axis=0) for name, rows in neg_shared.items()
        }
    gh, gr, gt = model.grad(h_rows, r_rows, t_rows, result.grad_pos, pos_shared)
    gnh, gnr, gnt = model.grad(neg_h, neg_r, neg_t, upstream, neg_shared)

    # One scatter per table, its blocks in the reference pass order (gh, gt,
    # gnh, gnt — and gr, gnr for relations): every gradient slot sees its
    # float contributions in the same left-to-right order, so the result is
    # bit-identical (enforced against tests/reference/compute_reference).
    ent_grads = scatter_add_rows(
        [(h_pos, gh), (t_pos, gt), (neg_h_idx, gnh), (neg_t_idx, gnt)],
        len(entity_ids),
    )
    rel_grads = scatter_add_rows([(r_pos, gr), (neg_r_idx, gnr)], len(relation_ids))

    return BatchGradients(
        loss=result.value,
        entity_ids=entity_ids,
        entity_grads=ent_grads,
        relation_ids=relation_ids,
        relation_grads=rel_grads,
        num_scores=b * (1 + n_neg),
        active_negatives=len(keep),
    )
