"""Sparse optimizer interface.

An optimizer updates selected *rows* of an embedding table in place given
row gradients — the access pattern of PS-based KGE training, where each
mini-batch touches a tiny fraction of the table.  Optimizer state (e.g.
AdaGrad accumulators) is keyed per table so one optimizer instance can
serve both the entity and relation tables of a server shard.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.utils.kernels import scatter_add_rows


class SparseOptimizer(ABC):
    """Applies sparse row updates to named embedding tables."""

    def __init__(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        #: Per-table state arrays by table name (AdaGrad's accumulators;
        #: stays empty for stateless optimizers).  Public so the state's
        #: owner (:class:`~repro.ps.server.ParameterServer`) can name the
        #: arrays and point the names at other storage.
        self.state: dict[str, np.ndarray] = {}

    def state_for(self, table_name: str, table: np.ndarray) -> np.ndarray | None:
        """The state array that shadows ``table`` element for element,
        allocated on first ask — or ``None`` when the optimizer keeps no
        per-element state (the default)."""
        return None

    @abstractmethod
    def update(
        self,
        table_name: str,
        table: np.ndarray,
        row_ids: np.ndarray,
        grads: np.ndarray,
        assume_unique: bool = False,
    ) -> None:
        """Apply one gradient step to ``table[row_ids]`` in place.

        ``row_ids`` may contain duplicates (the same embedding touched by
        several triples in a batch); implementations must accumulate those
        contributions rather than letting the last write win.  Callers that
        *guarantee* distinct ids (e.g. the cache writing back per-unique-id
        gradients to its slots) may pass ``assume_unique=True`` to skip the
        coalescing scan entirely; per-row arithmetic is unchanged, so the
        update is bit-identical to the coalesced path.
        """

    def state_size(self) -> int:
        """Total number of state floats held (for memory accounting)."""
        return int(sum(array.size for array in self.state.values()))


def coalesce(
    row_ids: np.ndarray, grads: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum gradient rows that target the same id.

    Returns ``(unique_ids, summed_grads)``.  This mirrors what dense
    frameworks do for sparse gradients and is required for correctness with
    fancy-indexed in-place updates (``table[ids] -= g`` drops duplicate
    contributions).

    Fast path: the training loop pushes gradients already coalesced per
    sorted-unique id (:func:`repro.core.compute.compute_batch_gradients`
    returns them that way), so a strictly-increasing id array is passed
    through untouched — no ``np.unique``, no scatter.  The general path
    sums duplicates with one :func:`~repro.utils.kernels.scatter_add_rows`
    (one block, added row by row in input order), matching the former ``np.add.at``
    accumulation bit for bit.
    """
    row_ids = np.asarray(row_ids, dtype=np.int64)
    if len(row_ids) < 2 or bool(np.all(row_ids[:-1] < row_ids[1:])):
        return row_ids, np.asarray(grads)
    unique, inverse = np.unique(row_ids, return_inverse=True)
    return unique, scatter_add_rows([(inverse, grads)], len(unique))
