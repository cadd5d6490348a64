"""Sparse AdaGrad [Duchi et al., JMLR 2011].

The paper's server-side optimizer (Algorithm 4): per-element accumulated
squared gradients divide the learning rate, so frequently-updated hot
embeddings take smaller steps.  State is allocated lazily per table, which
matches the paper's note that AdaGrad "needs to save the historical
gradients of each parameter separately, which increases the memory usage".
"""

from __future__ import annotations

import numpy as np

from repro.optim.base import SparseOptimizer, coalesce


class SparseAdagrad(SparseOptimizer):
    """AdaGrad over sparse rows of named tables.

    Parameters
    ----------
    lr:
        Base learning rate ``eta``.
    eps:
        Numerical floor inside the square root.
    """

    def __init__(self, lr: float, eps: float = 1e-10) -> None:
        super().__init__(lr)
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.eps = eps
        #: Flat scratch the update's temporaries live in, grown to the
        #: largest ``rows * width`` seen (never pickled).
        self._scratch = np.empty(0)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_scratch": np.empty(0)}

    def state_for(self, table_name: str, table: np.ndarray) -> np.ndarray:
        """The accumulated squared gradients of ``table`` (zeros until a
        row is first touched), grown with the table."""
        acc = self.state.get(table_name)
        if acc is None or acc.shape != table.shape:
            # ``table.shape``, not ``zeros_like(table)``: a tiered table
            # would materialise itself to be copied for its shape.
            grown = np.zeros(table.shape, dtype=table.dtype)
            if (
                acc is not None
                and acc.ndim == table.ndim == 2
                and acc.shape[1] == table.shape[1]
                and acc.shape[0] < table.shape[0]
            ):
                # The table gained rows (online ingestion growing the
                # vocabulary): keep the historical gradients of the
                # surviving rows — resetting them would silently restart
                # every existing embedding's learning-rate schedule.
                grown[: acc.shape[0]] = acc
            acc = grown
            self.state[table_name] = acc
        return acc

    def update(
        self,
        table_name: str,
        table: np.ndarray,
        row_ids: np.ndarray,
        grads: np.ndarray,
        assume_unique: bool = False,
    ) -> None:
        if len(row_ids) == 0:
            return
        if assume_unique:
            ids, g = row_ids, grads
        else:
            ids, g = coalesce(row_ids, grads)
        acc = self.state_for(table_name, table)
        # ``table[ids] -= lr * g / sqrt((acc[ids] + g * g) + eps)``, each
        # operation the same IEEE one in the same order (``g * lr`` is
        # ``lr * g``: multiplication commutes), written into two arrays:
        # the gathered ``acc`` rows and one reused scratch.
        # Step from the sum just computed, not from a re-read of ``acc``:
        # on the shared accumulator of the async mp backend another worker
        # can store a stale value between the write and the read, and a
        # stale 0 turns the step into ``lr * g / sqrt(eps)``.
        total = np.take(acc, ids, axis=0)
        if total.size > self._scratch.size:
            self._scratch = np.empty(total.size)
        scratch = self._scratch[: total.size].reshape(total.shape)
        total += np.multiply(g, g, out=scratch)
        acc[ids] = total
        root = np.sqrt(np.add(total, self.eps, out=scratch), out=scratch)
        step = np.divide(np.multiply(g, self.lr, out=total), root, out=total)
        # ``table`` keeps its own ``[]``: ``np.take`` on a tiered table
        # would materialise all of it.
        table[ids] -= step

    def reset(self) -> None:
        """Drop all accumulated state (fresh training run)."""
        self.state.clear()
