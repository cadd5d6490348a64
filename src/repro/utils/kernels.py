"""Shared vectorized array kernels for the training hot path.

The backward pass ends in a scatter-add: every gradient row goes to the
row of its id, duplicates accumulate.  ``np.add.at`` (unbuffered ufunc
scatter) is safe with duplicates but slow; the kernel here adds each row
to its output row in one compiled loop, strictly in input order, starting
from ``+0.0`` — so every output cell sees the same float addition chain as
``np.add.at`` and the result is **bit-identical** for float64 payloads.
``tests/test_compute_reference.py`` enforces that against the
``np.bincount`` kernel this one replaced (kept in
``tests/reference/compute_reference.py``).

The loop is scipy's ``_sparsetools.csc_matvecs`` — the one that
``csc_array @ dense`` ends in, called directly on a one-hot ``(n_out, n)``
CSC layout (column ``i`` holds one ``1.0`` in row ``indices[i]``).  It
does ``y += A @ x`` into a caller-owned ``y``, so gradient blocks add into
one zeroed output one after another: no concatenation of the blocks and
no sparse matrix whose Python-side constructor and validation cost more
than the loop at a step's sizes (docs/performance.md §13).  The module is
private; its signature and accumulate-into-``y`` semantics are those of
every scipy since 0.14, and ``tests/test_perf_equivalence.py`` pins both.

The extension is loaded at first use and on its own (:func:`sparsetools`):
importing the ``scipy.sparse`` package to reach it runs its whole Python
layer, ~0.2 s of a training process's first step and ~13 MiB of peak
RSS that nothing else here uses (docs/performance.md §6).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from collections.abc import Sequence
from types import ModuleType

import numpy as np

_SPARSETOOLS = "scipy.sparse._sparsetools"


@functools.cache
def sparsetools() -> ModuleType:
    """scipy's compiled ``scipy.sparse._sparsetools``, loaded once.

    The module an imported ``scipy.sparse`` loaded, when there is one;
    otherwise the extension file itself, found through scipy's import spec
    (which runs no ``scipy/__init__``) and loaded without importing any
    scipy package.  ``ImportError`` naming the paths tried if it is not
    there.
    """
    loaded = sys.modules.get(_SPARSETOOLS)
    if loaded is not None:
        return loaded
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    tried = [
        os.path.join(root, "sparse", "_sparsetools" + suffix)
        for root in roots or ()
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    ]
    for path in tried:
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(_SPARSETOOLS, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(_SPARSETOOLS, loader)
            )
            loader.exec_module(module)
            return module
    raise ImportError(
        f"scatter_add_rows needs scipy's compiled {_SPARSETOOLS}; looked for "
        + (", ".join(tried) if tried else "an installed scipy package")
    )


def scatter_add_rows(
    blocks: Sequence[tuple[np.ndarray, np.ndarray]], n_out: int
) -> np.ndarray:
    """Row-wise scatter-add of gradient blocks: the ``(n_out, d)`` matrix
    ``out`` with ``out[indices[i]] += rows[i]`` for every row ``i`` of every
    ``(indices, rows)`` block, blocks in order (duplicates accumulate).

    Equivalent to ``np.add.at(np.zeros((n_out, d)), indices, rows)`` over
    the concatenation of the blocks, bit for bit: blocks go in order and
    rows in order within a block, so each output cell's addition chain is
    the concatenation's chain, starting at ``+0.0``.

    Every block is validated before the first one is added — the compiled
    loop writes through ``indices`` unchecked: one integer index per row,
    each in ``[0, n_out)``, and one width ``d`` for all blocks; anything
    else raises ``ValueError``.  An empty block (no rows, or width 0) is
    nothing to scatter and nothing to reject.
    """
    if not blocks:
        raise ValueError("scatter_add_rows needs at least one block")
    checked = []
    d = None
    for indices, rows in blocks:
        rows = np.asarray(rows, dtype=np.float64)
        indices = np.asarray(indices)
        n, width = rows.shape
        if d is None:
            d = width
        elif width != d:
            raise ValueError(f"every block must be {d} wide, got one of width {width}")
        if n == 0 or d == 0:
            continue
        if indices.shape != (n,) or indices.dtype.kind not in "iu":
            raise ValueError(
                f"indices must be {n} integers, one per row; got shape "
                f"{indices.shape}, dtype {indices.dtype}"
            )
        # One reduction: viewed unsigned, a negative index is a huge one.
        if int(indices.view(f"u{indices.itemsize}").max()) >= n_out:
            lo, hi = int(indices.min()), int(indices.max())
            raise ValueError(
                f"index {lo if lo < 0 else hi} is out of range for n_out={n_out}"
            )
        # In range, so every index fits the loop's own index type.
        checked.append((indices.astype(np.intp, copy=False), rows.reshape(-1)))
    out = np.zeros((n_out, d), dtype=np.float64)
    if not checked:
        return out
    csc_matvecs = sparsetools().csc_matvecs
    n_max = max(len(indices) for indices, _ in checked)
    indptr = np.arange(n_max + 1)
    ones = np.ones(n_max)
    flat = out.reshape(-1)
    for indices, rows in checked:
        n = len(indices)
        csc_matvecs(n_out, n, d, indptr[: n + 1], indices, ones[:n], rows, flat)
    return out
