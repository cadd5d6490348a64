"""Algorithm 2 — filtering.

Given the access counts from a prefetch window, pick the top-k ids to
cache.  HET-KG's heterogeneity-aware twist: relations are accessed far more
often than entities (Fig. 2), so a naive frequency top-k would fill the
cache with relations and starve entity caching.  The filter therefore fixes
the *fraction* of cache slots given to entities (25% in the paper's best
configuration, Fig. 8(c)) and fills each side by its own frequency order.

Setting ``entity_ratio=None`` reproduces the paper's HET-KG-N ablation
(frequency-only, heterogeneity-ignorant — Table VII).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.hotness import HotnessTable, top_merged
from repro.utils.validation import check_fraction, check_positive


@dataclass
class HotSet:
    """The filtered hot-embedding identifiers."""

    entities: np.ndarray  # hot entity ids, hottest first
    relations: np.ndarray  # hot relation ids, hottest first

    @property
    def size(self) -> int:
        return len(self.entities) + len(self.relations)


def split_slots(capacity: int, entity_ratio: float) -> tuple[int, int]:
    """Divide ``capacity`` cache slots between entities and relations.

    The one slot-split rule shared by training
    (:func:`filter_hot_ids`) and serving
    (:meth:`repro.serving.ServingCache.dynamic`): entities get
    ``round(capacity * entity_ratio)`` slots and relations the remainder,
    so the sides always sum to **exactly** ``capacity`` — at
    ``capacity=1`` one side gets the single slot and the other gets zero.
    (The pre-core serving split applied ``max(1, ...)`` to both sides
    independently and allocated two slots to a capacity-1 cache.)
    """
    check_positive("capacity", capacity)
    check_fraction("entity_ratio", entity_ratio)
    entity_slots = int(round(capacity * entity_ratio))
    return entity_slots, capacity - entity_slots


def filter_hot_ids(
    entity_counts: HotnessTable,
    relation_counts: HotnessTable,
    capacity: int,
    entity_ratio: float | None = 0.25,
) -> HotSet:
    """Run Algorithm 2: pick the top-``capacity`` hot ids.

    Parameters
    ----------
    entity_counts, relation_counts:
        Access frequencies from :func:`repro.cache.prefetch.prefetch`.
    capacity:
        Total cache slots ``k`` (entities + relations combined).
    entity_ratio:
        Fraction of slots reserved for entities (the paper fixes 25%
        entities / 75% relations).  ``None`` disables the heterogeneity
        fix and ranks all ids purely by frequency (HET-KG-N).
    """
    check_positive("capacity", capacity)
    if entity_ratio is None:
        entities, relations = top_merged(
            entity_counts, relation_counts, capacity, id_major=False
        )
        return HotSet(entities=entities, relations=relations)

    entity_slots, relation_slots = split_slots(capacity, entity_ratio)
    entities = entity_counts.top(entity_slots)
    relations = relation_counts.top(relation_slots)

    # Reassign slots one side could not fill (small graphs may have fewer
    # distinct relations than reserved slots).
    spare = (entity_slots - len(entities)) + (relation_slots - len(relations))
    if spare > 0:
        if len(relations) < relation_slots:
            entities = entity_counts.top(entity_slots + spare)
        elif len(entities) < entity_slots:
            relations = relation_counts.top(relation_slots + spare)
    return HotSet(entities=entities, relations=relations)
