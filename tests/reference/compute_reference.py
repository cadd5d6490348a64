"""Reference oracle: the step's math before the one-hot scatter and the
score -> grad carrier.

Moved verbatim from ``src/`` when ``repro.utils.kernels.scatter_add_rows``
became a one-hot CSC product and TransE started handing ``score``'s
``h + r - t`` to ``grad``:

* :func:`scatter_add_rows` — the flattened ``np.bincount`` kernel;
* :func:`compute_batch_gradients` — ``repro.core.compute``'s forward +
  backward, calling ``score`` / ``grad`` with no carrier and scattering
  through the bincount kernel above;
* :class:`TransEReference` — TransE's ``score`` / ``grad`` bodies as they
  were (every pass, ``scaled.copy()`` included).

``tests/test_compute_reference.py`` requires the live path to reproduce
these byte for byte; that suite is also what pins scipy's
``csc_matvecs`` column order.  Not imported by ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.core.compute import BatchGradients
from repro.kg.graph import HEAD, REL, TAIL
from repro.models import TransE
from repro.models.base import KGEModel
from repro.models.losses import Loss
from repro.sampling.negative import MiniBatch

_EPS = 1e-12


def scatter_add_rows(
    indices: np.ndarray, rows: np.ndarray, n_out: int
) -> np.ndarray:
    """Row-wise scatter-add: the matrix ``out`` with
    ``out[indices[i]] += rows[i]`` for every ``i`` (duplicates accumulate).

    Equivalent to ``np.add.at(np.zeros((n_out, d)), indices, rows)`` but
    implemented as a *single* flattened ``np.bincount``: element ``(i, c)``
    of ``rows`` scatters into flat bin ``indices[i] * d + c``.  For any
    output cell, contributing inputs appear in ascending ``i`` — the same
    left-to-right order the ``np.add.at`` reference uses — so the float
    addition chains, and therefore the results, match exactly.
    """
    rows = np.asarray(rows, dtype=np.float64)
    d = rows.shape[1]
    if len(indices) == 0 or d == 0:
        return np.zeros((n_out, d), dtype=np.float64)
    flat_bins = (indices[:, None] * d + np.arange(d)).ravel()
    flat = np.bincount(flat_bins, weights=rows.ravel(), minlength=n_out * d)
    return flat.reshape(n_out, d)


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
    pos_scores = model.score(h_rows, r_rows, t_rows)

    # Negative triples: corrupt head or tail per row of the batch.
    corrupt_head = batch.corrupt_head  # (b,)
    rep = np.repeat(np.arange(b), n_neg)
    neg_flat = neg_pos.ravel()
    neg_h_idx = np.where(np.repeat(corrupt_head, n_neg), neg_flat, h_pos[rep])
    neg_t_idx = np.where(np.repeat(corrupt_head, n_neg), t_pos[rep], neg_flat)
    neg_h = entity_rows[neg_h_idx]
    neg_t = entity_rows[neg_t_idx]
    neg_r = relation_rows[r_pos[rep]]
    neg_scores = model.score(neg_h, neg_r, neg_t).reshape(b, n_neg)

    result = loss.compute(pos_scores, neg_scores)

    # ---- backward --------------------------------------------------------
    gh, gr, gt = model.grad(h_rows, r_rows, t_rows, result.grad_pos)
    gnh, gnr, gnt = model.grad(neg_h, neg_r, neg_t, result.grad_neg.ravel())

    # One bincount-based scatter per table replaces six np.add.at passes.
    # The concatenation preserves the reference pass order (gh, gt, gnh,
    # gnt — and gr, gnr for relations), so every gradient slot sees its
    # float contributions in the same left-to-right order and the result
    # is bit-identical (enforced by the golden-run equivalence suite).
    ent_grads = scatter_add_rows(
        np.concatenate([h_pos, t_pos, neg_h_idx, neg_t_idx]),
        np.concatenate([gh, gt, gnh, gnt]),
        len(entity_ids),
    )
    rel_grads = scatter_add_rows(
        np.concatenate([r_pos, r_pos[rep]]),
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
    )


class TransEReference(TransE):
    def score(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        diff = h + r - t
        if self.norm == "l1":
            return -np.abs(diff).sum(axis=1)
        return -np.sqrt((diff**2).sum(axis=1) + _EPS)

    def grad(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        upstream: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        diff = h + r - t
        if self.norm == "l1":
            # d(-|x|)/dx = -sign(x)
            base = -np.sign(diff)
        else:
            dist = np.sqrt((diff**2).sum(axis=1, keepdims=True) + _EPS)
            base = -diff / dist
        scaled = base * upstream[:, None]
        return scaled, scaled.copy(), -scaled


def reference_model(model: KGEModel) -> KGEModel:
    """The pre-carrier twin of ``model``; the ten models whose ``score``
    and ``grad`` bodies did not change are their own reference."""
    if isinstance(model, TransE):
        return TransEReference(model.dim, norm=model.norm)
    return model
