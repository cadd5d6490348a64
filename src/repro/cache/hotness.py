"""The hotness table — access counts as arrays, and the one ranking rule.

Algorithm 1 counts the accesses of a prefetched window and Algorithm 2
keeps the top-k; every consumer in between (the CPS/DPS/ADAPTIVE
strategies, their trace-level replay, the serving cache's log profile,
the calibrated query workload, the static importance cache) reads the
same thing: *ids, their counts, hottest first*.  :class:`HotnessTable` is
that format and this module is the only place the ranking expression —
"by ``(-count, id)``, take ``k``" — is written.

Two tables of different kinds can also be ranked *jointly*
(:func:`top_merged`).  Its two tie-break orders are both load-bearing:
the heterogeneity-ignorant filter and ADAPTIVE's ratio tuning were written
against different ones and every golden pins the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True, eq=False)
class HotnessTable:
    """Access counts of one id space.

    Attributes
    ----------
    ids:
        Unique int64 ids, ascending.
    counts:
        The count of each id, index-aligned — int64 for a counted window,
        float64 once :meth:`decayed_add` has mixed windows.
    """

    ids: np.ndarray
    counts: np.ndarray

    # ----------------------------------------------------------- construction

    @classmethod
    def empty(cls) -> "HotnessTable":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    @classmethod
    def dense(cls, counts: np.ndarray) -> "HotnessTable":
        """The table of a per-id count vector (id = position)."""
        counts = np.asarray(counts)
        return cls(np.arange(len(counts), dtype=np.int64), counts)

    @classmethod
    def count(
        cls,
        chunks: Sequence[np.ndarray],
        weights: Sequence[int] | None = None,
    ) -> "HotnessTable":
        """Count every occurrence of every id over many id chunks.

        One concatenate + one ``np.unique`` pass over the whole window
        (lines 7-8 of Alg. 1; the per-batch dict oracle is
        ``tests/reference/prefetch_reference.py``).  ``weights`` (one int
        per chunk) scales every occurrence in a chunk — used for
        relations, where each negative reuses its positive's relation
        embedding.
        """
        if not chunks:
            return cls.empty()
        ids = np.concatenate(chunks, dtype=np.int64)
        if weights is None:
            uniq, counts = np.unique(ids, return_counts=True)
            return cls(uniq, counts)
        per_element = np.repeat(
            np.asarray(weights, dtype=np.int64), [len(c) for c in chunks]
        )
        uniq, inverse = np.unique(ids, return_inverse=True)
        counts = np.bincount(inverse, weights=per_element, minlength=len(uniq))
        return cls(uniq, counts.astype(np.int64))

    # ---------------------------------------------------------------- reading

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def total(self) -> int | float:
        """Sum of all counts."""
        return self.counts.sum().item()

    def top(self, k: int) -> np.ndarray:
        """The ``k`` hottest ids, hottest first; equal counts rank by id."""
        return self.ids[np.lexsort((self.ids, -self.counts))[: max(k, 0)]]

    def mass(self, members: np.ndarray) -> int | float:
        """Sum of the counts of the ids in ``members`` — the accesses a
        cache holding ``members`` would serve."""
        return self.counts[np.isin(self.ids, members)].sum().item()

    # --------------------------------------------------------------- deriving

    def without(self, ids: np.ndarray) -> "HotnessTable":
        """This table minus the rows of ``ids``."""
        keep = ~np.isin(self.ids, ids)
        return HotnessTable(self.ids[keep], self.counts[keep])

    def decayed_add(self, window: "HotnessTable", decay: float) -> "HotnessTable":
        """``self * decay + window`` over the union of both id sets.

        Nothing is pruned — an id seen once keeps a (shrinking) count —
        except that ``decay == 0`` forgets this table entirely, ids
        included.  The result's counts are float64.
        """
        kept = self if decay != 0.0 else HotnessTable.empty()
        ids = np.union1d(kept.ids, window.ids)
        counts = np.zeros(len(ids), dtype=np.float64)
        counts[np.searchsorted(ids, kept.ids)] = kept.counts * decay
        counts[np.searchsorted(ids, window.ids)] += window.counts
        return HotnessTable(ids, counts)


def top_merged(
    entities: HotnessTable,
    relations: HotnessTable,
    k: int,
    *,
    id_major: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Rank two kinds in one list; ``(entity ids, relation ids)`` of its
    top ``k``, each hottest first.

    Highest count first.  Equal counts rank

    * ``id_major=False`` — entities before relations, then by id
      (Algorithm 2 without the slot ratio, HET-KG-N);
    * ``id_major=True`` — by id, and at equal id the relation first: the
      order of the interleaved code ``2 * relation`` / ``2 * entity + 1``
      (ADAPTIVE's ratio tuning and spare-slot top-up).
    """
    ids = np.concatenate([entities.ids, relations.ids])
    counts = np.concatenate([entities.counts, relations.counts])
    is_entity = np.arange(len(ids)) < len(entities)
    if id_major:
        order = np.lexsort((is_entity, ids, -counts))
    else:
        order = np.lexsort((ids, ~is_entity, -counts))
    top = order[: max(k, 0)]
    picked_entity = is_entity[top]
    return ids[top[picked_entity]], ids[top[~picked_entity]]
