"""Algorithm 1 — prefetch.

Sample the next ``D`` iterations of mini-batches (positives + corrupted
negatives) ahead of time, recording every entity and relation access.  The
sample list is returned so training consumes *exactly* the prefetched
batches; the access lists feed Algorithm 2 (filtering).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kg.graph import HEAD, REL, TAIL
from repro.sampling.minibatch import EpochSampler
from repro.sampling.negative import MiniBatch


@dataclass
class PrefetchResult:
    """Output of Algorithm 1.

    Attributes
    ----------
    batches:
        ``L_s`` — the prefetched mini-batches, in training order.
    entity_counts:
        id -> access count over the window (positives and negatives).
    relation_counts:
        id -> access count over the window.
    """

    batches: list[MiniBatch]
    entity_counts: dict[int, int] = field(default_factory=dict)
    relation_counts: dict[int, int] = field(default_factory=dict)

    @property
    def total_entity_accesses(self) -> int:
        return sum(self.entity_counts.values())

    @property
    def total_relation_accesses(self) -> int:
        return sum(self.relation_counts.values())


def _fold_counts(
    chunks: list[np.ndarray], weights: list[int] | None = None
) -> dict[int, int]:
    """Vectorized id -> access-count fold over many id chunks.

    One concatenate + one ``np.unique``/``np.bincount`` pass replaces the
    per-batch Python dict merge (lines 7-8 of Alg. 1; the per-batch oracle
    is ``tests/reference/prefetch_reference.py``).  ``weights`` (one int
    per chunk) scales every occurrence of a chunk — used for relations,
    where each negative reuses its positive's relation embedding.
    """
    if not chunks:
        return {}
    ids = np.concatenate(chunks)
    if len(ids) == 0:
        return {}
    if weights is None:
        uniq, counts = np.unique(ids, return_counts=True)
    else:
        per_element = np.concatenate(
            [np.full(len(c), w, dtype=np.int64) for c, w in zip(chunks, weights)]
        )
        uniq, inverse = np.unique(ids, return_inverse=True)
        counts = np.bincount(
            inverse, weights=per_element, minlength=len(uniq)
        ).astype(np.int64)
    return dict(zip(uniq.tolist(), counts.tolist()))


def prefetch(sampler: EpochSampler, iterations: int) -> PrefetchResult:
    """Run Algorithm 1: prefetch ``iterations`` batches and count accesses.

    Parameters
    ----------
    sampler:
        The worker's epoch sampler over its local subgraph ``G_i``.
    iterations:
        The prefetch window ``D`` (CPS passes a full epoch's batch count).
    """
    batches = sampler.prefetch(iterations)
    ent_chunks: list[np.ndarray] = []
    rel_chunks: list[np.ndarray] = []
    rel_weights: list[int] = []
    for batch in batches:
        ent_chunks.append(batch.positives[:, HEAD])
        ent_chunks.append(batch.positives[:, TAIL])
        ent_chunks.append(batch.neg_entities.ravel())
        rel_chunks.append(batch.positives[:, REL])
        rel_weights.append(1 + batch.num_negatives)
    return PrefetchResult(
        batches=batches,
        entity_counts=_fold_counts(ent_chunks),
        relation_counts=_fold_counts(rel_chunks, rel_weights),
    )
