"""Structural analytics for knowledge graphs.

How much of the access stream a hot set of a given size can cover: the
analytic ceiling the HET-KG cache's measured hit ratio is checked against.
"""

from __future__ import annotations

import numpy as np


def hot_set_coverage(
    counts: np.ndarray, capacities: tuple[int, ...]
) -> list[tuple[int, float]]:
    """Access share covered by caching the top-``k`` ids, for several k.

    The analytic upper bound on any static cache's hit ratio — used to
    sanity-check measured hit ratios and to size caches before training.
    """
    counts = np.sort(np.asarray(counts, dtype=np.float64))[::-1]
    total = counts.sum()
    out = []
    for k in capacities:
        if k < 0:
            raise ValueError(f"capacities must be non-negative, got {k}")
        share = float(counts[:k].sum() / total) if total > 0 else 0.0
        out.append((k, share))
    return out
