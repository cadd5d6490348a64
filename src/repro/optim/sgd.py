"""Plain sparse SGD — the baseline optimizer the paper compares AdaGrad
against ("based on past experience, [AdaGrad] can get embeddings of greater
quality than SGD")."""

from __future__ import annotations

import numpy as np

from repro.optim.base import SparseOptimizer, coalesce


class SparseSGD(SparseOptimizer):
    """Stateless sparse gradient descent."""

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
        table[ids] -= self.lr * g
