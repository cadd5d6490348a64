"""Reference oracle: per-query full-candidate ranking.

This is ``repro.core.evaluation``'s pre-vectorization implementation, kept
verbatim (one ``_rank_one_side`` call per query) so the batched production
kernels can be checked against it bit for bit
(``tests/test_perf_equivalence.py``).  Not imported by ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluation import FilterIndex, _rank_one_side
from repro.models.base import KGEModel


def full_ranks_reference(
    model: KGEModel,
    entity_table: np.ndarray,
    relation_table: np.ndarray,
    triples: np.ndarray,
    replace_head: bool,
    filter_index: "FilterIndex | None",
) -> list[int]:
    """Per-query full-candidate ranks for one corruption side."""
    candidates = np.arange(len(entity_table))
    return [
        _rank_one_side(
            model,
            entity_table,
            relation_table,
            int(h),
            int(r),
            int(t),
            replace_head,
            candidates,
            filter_index,
        )
        for h, r, t in triples
    ]
