"""Algorithm 1 — prefetch.

Sample the next ``D`` iterations of mini-batches (positives + corrupted
negatives) ahead of time, recording every entity and relation access.  The
sample list is returned so training consumes *exactly* the prefetched
batches; the access lists feed Algorithm 2 (filtering).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.hotness import HotnessTable
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
        Access counts over the window (positives and negatives).
    relation_counts:
        Access counts over the window.
    """

    batches: list[MiniBatch]
    entity_counts: HotnessTable
    relation_counts: HotnessTable

    @property
    def total_entity_accesses(self) -> int:
        return self.entity_counts.total

    @property
    def total_relation_accesses(self) -> int:
        return self.relation_counts.total


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
        entity_counts=HotnessTable.count(ent_chunks),
        relation_counts=HotnessTable.count(rel_chunks, rel_weights),
    )
