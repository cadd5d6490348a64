"""Shared vectorized array kernels for the training hot path.

``np.add.at`` (unbuffered ufunc scatter) dominates the backward pass and
optimizer profiles — it is safe with duplicate indices but slow.  The same
accumulation written as a product with a one-hot sparse matrix is one C
loop over the input rows, adding each row to its output row strictly in
input order, several times faster.  Because per-cell additions happen in
identical left-to-right order, substituting one for the other is
**bit-identical** for float64 payloads, which is the contract
``tests/test_compute_reference.py`` enforces against the ``np.bincount``
kernel this one replaced (kept in ``tests/reference/compute_reference.py``).
"""

from __future__ import annotations

import numpy as np


def scatter_add_rows(
    indices: np.ndarray, rows: np.ndarray, n_out: int
) -> np.ndarray:
    """Row-wise scatter-add: the matrix ``out`` with
    ``out[indices[i]] += rows[i]`` for every ``i`` (duplicates accumulate).

    Equivalent to ``np.add.at(np.zeros((n_out, d)), indices, rows)`` but
    implemented as ``onehot @ rows``, where ``onehot`` is the
    ``(n_out, n)`` CSC matrix whose column ``i`` holds a single ``1.0`` in
    row ``indices[i]``.  The CSC product walks columns in ascending ``i``
    doing ``out[indices[i], :] += 1.0 * rows[i, :]`` — the same
    left-to-right order per output cell the ``np.add.at`` reference uses,
    starting from the same ``0.0`` — so the float addition chains, and
    therefore the results, match exactly.

    The product writes through ``indices`` unchecked, so they are validated
    here: anything outside ``[0, n_out)`` raises ``ValueError``.
    """
    rows = np.asarray(rows, dtype=np.float64)
    indices = np.asarray(indices)
    n, d = rows.shape
    if n == 0 or d == 0:
        return np.zeros((n_out, d), dtype=np.float64)
    if indices.shape != (n,) or indices.dtype.kind not in "iu":
        raise ValueError(
            f"indices must be {n} integers, one per row; got shape "
            f"{indices.shape}, dtype {indices.dtype}"
        )
    lo, hi = int(indices.min()), int(indices.max())
    if lo < 0 or hi >= n_out:
        raise ValueError(
            f"index {lo if lo < 0 else hi} is out of range for n_out={n_out}"
        )
    # Imported at first use: only training scatters, and nothing else in the
    # package needs scipy (module-top import costs ~13 MiB of peak RSS).
    from scipy.sparse import csc_array

    onehot = csc_array(
        (np.ones(n), indices, np.arange(n + 1)), shape=(n_out, n)
    )
    return onehot @ rows
