"""Model-agnostic forward/backward computation for one mini-batch.

Given a batch and the embedding rows for its unique ids, compute the loss
and the coalesced gradients per unique id.  Shared by every trainer (HET-KG
and both baselines), so the compared systems differ *only* in how they move
embeddings around — the learning math is identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kg.graph import HEAD, REL, TAIL
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
        Sorted unique ids the batch touches (from
        :meth:`MiniBatch.unique_entities` / ``unique_relations``).
    entity_rows / relation_rows:
        Embedding rows aligned with those ids (wherever they were fetched
        from — cache or parameter server).

    Returns the loss and gradients *coalesced per unique id*, ready to push.
    """
    pos = batch.positives
    b = batch.size
    n_neg = batch.num_negatives

    h_pos = np.searchsorted(entity_ids, pos[:, HEAD])
    t_pos = np.searchsorted(entity_ids, pos[:, TAIL])
    r_pos = np.searchsorted(relation_ids, pos[:, REL])
    neg_pos = np.searchsorted(entity_ids, batch.neg_entities)  # (b, n_neg)

    h_rows = entity_rows[h_pos]
    t_rows = entity_rows[t_pos]
    r_rows = relation_rows[r_pos]

    # ---- forward ---------------------------------------------------------
    # What each ``score`` call leaves in its dict, the ``grad`` call on the
    # same rows picks up instead of recomputing it.
    pos_shared: dict = {}
    neg_shared: dict = {}
    pos_scores = model.score(h_rows, r_rows, t_rows, pos_shared)

    # Negative triples: corrupt head or tail per row of the batch.
    corrupt_head = np.repeat(batch.corrupt_head, n_neg)  # (b * n_neg,)
    rep = np.repeat(np.arange(b), n_neg)
    neg_flat = neg_pos.ravel()
    neg_h_idx = np.where(corrupt_head, neg_flat, h_pos[rep])
    neg_t_idx = np.where(corrupt_head, t_pos[rep], neg_flat)
    neg_r_idx = r_pos[rep]
    neg_h = entity_rows[neg_h_idx]
    neg_t = entity_rows[neg_t_idx]
    neg_r = relation_rows[neg_r_idx]
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
        neg_h, neg_r, neg_t = neg_h[keep], neg_r[keep], neg_t[keep]
        neg_shared = {name: rows[keep] for name, rows in neg_shared.items()}
    gh, gr, gt = model.grad(h_rows, r_rows, t_rows, result.grad_pos, pos_shared)
    gnh, gnr, gnt = model.grad(neg_h, neg_r, neg_t, upstream, neg_shared)

    # One order-preserving scatter per table replaces six np.add.at passes.
    # The concatenation preserves the reference pass order (gh, gt, gnh,
    # gnt — and gr, gnr for relations), so every gradient slot sees its
    # float contributions in the same left-to-right order and the result
    # is bit-identical (enforced against tests/reference/compute_reference).
    ent_grads = scatter_add_rows(
        np.concatenate([h_pos, t_pos, neg_h_idx, neg_t_idx]),
        np.concatenate([gh, gt, gnh, gnt]),
        len(entity_ids),
    )
    rel_grads = scatter_add_rows(
        np.concatenate([r_pos, neg_r_idx]),
        np.concatenate([gr, gnr]),
        len(relation_ids),
    )

    return BatchGradients(
        loss=result.value,
        entity_ids=entity_ids,
        entity_grads=ent_grads,
        relation_ids=relation_ids,
        relation_grads=rel_grads,
        num_scores=b * (1 + n_neg),
        active_negatives=len(keep),
    )
