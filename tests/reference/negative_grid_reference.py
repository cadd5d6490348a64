"""Reference oracle: a batch's negatives scored from three gathered
``(b * n, d)`` operand arrays.

Moved from ``src/`` when ``KGEModel.score_negatives`` took over the
negative forward pass and TransE began reading each chunk's ``n`` shared
negative rows once:

* :func:`negative_triples` — ``MiniBatch.negative_triples``, verbatim as a
  function of the batch: every ``(b * n, 3)`` corrupted triple,
  materialised;
* :func:`compute_batch_gradients` — ``repro.core.compute``'s forward and
  backward as they were: three ``np.take`` gathers of ``b * n`` rows and
  one ``model.score``, then the active-negative mask and the scatter.  The
  one change: the operand positions of the negatives are read off
  :func:`negative_triples` by ``searchsorted``, not built from the
  batch's index with ``np.where`` and ``np.repeat``, so the live index
  arithmetic is checked too.

``tests/test_negative_grid.py`` requires the live step to reproduce this
byte for byte.  Not imported by ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.core.compute import BatchGradients, _positions
from repro.kg.graph import HEAD, REL, TAIL
from repro.models.base import KGEModel
from repro.models.losses import Loss
from repro.sampling.negative import MiniBatch
from repro.utils.kernels import scatter_add_rows


def negative_triples(batch: MiniBatch) -> np.ndarray:
    """Materialise all ``(b * n_neg, 3)`` corrupted triples."""
    b, n = batch.neg_entities.shape
    pos = np.repeat(batch.positives, n, axis=0)
    neg = pos.copy()
    flat = batch.neg_entities.ravel()
    heads = np.repeat(batch.corrupt_head, n)
    neg[heads, HEAD] = flat[heads]
    neg[~heads, TAIL] = flat[~heads]
    return neg


def _operand_positions(
    triples: np.ndarray, entity_ids: np.ndarray, relation_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each triple's head, relation and tail sit in the sorted ids."""
    return (
        np.searchsorted(entity_ids, triples[:, HEAD]),
        np.searchsorted(relation_ids, triples[:, REL]),
        np.searchsorted(entity_ids, triples[:, TAIL]),
    )


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
    h_pos, t_pos = ent_pos[:b], ent_pos[b : 2 * b]

    h_rows = np.take(entity_rows, h_pos, axis=0)
    t_rows = np.take(entity_rows, t_pos, axis=0)
    r_rows = np.take(relation_rows, r_pos, axis=0)

    # ---- forward ---------------------------------------------------------
    # What each ``score`` call leaves in its dict, the ``grad`` call on the
    # same rows picks up instead of recomputing it.
    pos_shared: dict = {}
    neg_shared: dict = {}
    pos_scores = model.score(h_rows, r_rows, t_rows, pos_shared)

    # Negative triples, materialised: row i * n_neg + j corrupts positive i.
    neg_h_idx, neg_r_idx, neg_t_idx = _operand_positions(
        negative_triples(batch), entity_ids, relation_ids
    )
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
