"""Reference oracle: the per-batch prefetch access counter.

This is ``repro.cache.prefetch._count_batch``, moved verbatim when
:func:`repro.cache.prefetch.prefetch` started folding a whole window
through one vectorized count (now ``HotnessTable.count``): the fold must
agree with applying this function batch by batch
(``tests/test_perf_equivalence.py``).  Not imported by ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.kg.graph import HEAD, REL, TAIL
from repro.sampling.negative import MiniBatch


def _count_batch(
    batch: MiniBatch,
    entity_counts: dict[int, int],
    relation_counts: dict[int, int],
) -> None:
    """Per-batch reference counter (line 7-8 of Alg. 1)."""
    touched_entities = np.concatenate(
        [
            batch.positives[:, HEAD],
            batch.positives[:, TAIL],
            batch.neg_entities.ravel(),
        ]
    )
    ids, counts = np.unique(touched_entities, return_counts=True)
    for e, c in zip(ids.tolist(), counts.tolist()):
        entity_counts[e] = entity_counts.get(e, 0) + c
    # Each negative reuses its positive's relation embedding.
    rel_ids, rel_counts = np.unique(batch.positives[:, REL], return_counts=True)
    weight = 1 + batch.num_negatives
    for r, c in zip(rel_ids.tolist(), rel_counts.tolist()):
        relation_counts[r] = relation_counts.get(r, 0) + c * weight
