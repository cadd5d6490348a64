"""The cache embedding table: a fixed-capacity id -> row store.

One table caches one kind of embedding (entities or relations) at one
worker.  Membership is decided externally (by the CPS/DPS strategies); the
table provides vectorized id lookup, bulk hit/miss partitioning, in-place
row updates, and hit-ratio accounting.

Implementation note (the determinism contract)
----------------------------------------------
Membership is an id -> slot map: ``_slot`` is one int64 per id, holding
the id's slot or ``-1``, sized to the largest installed id + 1.  Every
lookup (``lookup`` / ``slot_of`` / ``partition_hits`` / ``get``) is one
gather from it; ids below zero or past its end miss.  Slot assignment is
pinned: ``install(ids, rows)`` stores ``ids[i]`` at slot ``i`` exactly as
the dict-based implementation did, so ``rows_view()`` layouts, optimizer
state addressing, and the :attr:`ids` order are bit-compatible with the
pre-vectorization code (see ``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.core import CapacityLedger
from repro.utils.validation import check_positive

_EMPTY_IDS = np.empty(0, dtype=np.int64)


@dataclass
class CacheStats:
    """Cumulative hit/miss counters for one cache table."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


class CacheTable:
    """Fixed-capacity embedding rows keyed by id.

    Parameters
    ----------
    capacity:
        Maximum number of rows the table may hold.
    width:
        Row width (the model's entity or relation dim).
    """

    def __init__(self, capacity: int, width: int) -> None:
        check_positive("width", width)
        #: Shared capacity accounting (also validates capacity >= 0).
        self._ledger = CapacityLedger(capacity)
        self.capacity = capacity
        self.width = width
        self._rows = np.zeros((capacity, width), dtype=np.float64)
        #: Install-order ids; ``_ids[i]`` lives at slot ``i``.
        self._ids: np.ndarray = _EMPTY_IDS
        #: ``_slot[id]`` is the id's slot, ``-1`` when it is not cached.
        self._slot: np.ndarray = _EMPTY_IDS
        self.stats = CacheStats()

    # ------------------------------------------------------------- membership

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, item: int) -> bool:
        item = int(item)
        return 0 <= item < len(self._slot) and self._slot[item] >= 0

    @property
    def ids(self) -> np.ndarray:
        """Currently cached ids, in slot (install) order."""
        return self._ids.copy()

    def install(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Replace the entire membership with ``ids`` -> ``rows``.

        This is the hot-embedding table (re)construction step: CPS calls it
        once before training, DPS every ``D`` iterations.  ``ids`` must be
        unique and non-negative.  Hit/miss counters are preserved across
        installs (they measure the whole run).
        """
        ids = np.asarray(ids, dtype=np.int64)
        self._ledger.check_fits(len(ids))
        if len(ids) != len(rows):
            raise ValueError(f"{len(ids)} ids but {len(rows)} rows")
        top = 0
        if len(ids):
            ordered = np.sort(ids)
            if ordered[0] < 0:
                raise ValueError(
                    f"install ids must be non-negative, got {int(ordered[0])}"
                )
            if bool((ordered[1:] == ordered[:-1]).any()):
                raise ValueError("install ids must be unique")
            top = int(ordered[-1]) + 1
        previous = len(self._ids)
        self._ledger.reinstall(len(ids))
        self._slot[self._ids] = -1
        if top > len(self._slot):
            # Every entry is -1 once the outgoing members are cleared.
            self._slot = np.full(top, -1, dtype=np.int64)
        self._slot[ids] = np.arange(len(ids))
        self._ids = ids.copy()
        self._rows[: len(ids)] = rows
        if len(ids) < previous:
            # Zero the tail on shrink: rows_view() hands the backing array
            # to optimizers, and rows beyond the live membership must not
            # leak a previous membership's embeddings.
            self._rows[len(ids):previous] = 0.0

    # ------------------------------------------------------------------ reads

    def lookup(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized membership + slot resolution in one gather.

        Returns ``(mask, slots)`` where ``mask[i]`` says whether ``ids[i]``
        is cached and ``slots[i]`` is its slot (``-1`` for misses).
        """
        ids = np.asarray(ids, dtype=np.int64)
        slot = self._slot
        # Negative ids wrap past every id as uint64: one compare bounds both.
        inside = ids.view(np.uint64) < len(slot)
        if inside.all():
            slots = slot[ids]
        else:
            slots = np.full(len(ids), -1, dtype=np.int64)
            slots[inside] = slot[ids[inside]]
        return slots >= 0, slots

    def partition_hits(
        self, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split ``ids`` into (mask, cached, not-cached), updating hit stats.

        Duplicate ids count once per occurrence, matching how a worker's
        accesses are metered.
        """
        ids = np.asarray(ids, dtype=np.int64)
        mask, _ = self.lookup(ids)
        hits = int(mask.sum())
        self.stats.hits += hits
        self.stats.misses += int(len(ids) - hits)
        return mask, ids[mask], ids[~mask]

    def get(self, ids: np.ndarray) -> np.ndarray:
        """Rows for ``ids`` (every id must be cached). Returns a copy."""
        slots = self.slot_of(ids)
        return self._rows[slots].copy()

    # ----------------------------------------------------------------- writes

    def set(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Overwrite cached rows (used by the periodic synchronization)."""
        slots = self.slot_of(ids)
        self._rows[slots] = rows

    @property
    def occupied(self) -> int:
        """Rows of the backing array that belong to the live membership.

        ``rows_view()`` consumers must only touch slots ``< occupied``;
        everything beyond is zeroed padding.
        """
        return len(self._ids)

    def rows_view(self) -> np.ndarray:
        """The live backing array (first :attr:`occupied` rows are valid)."""
        return self._rows

    def slot_of(self, ids: np.ndarray) -> np.ndarray:
        """Slot index of each cached id; raises ``KeyError`` for a miss."""
        ids = np.asarray(ids, dtype=np.int64)
        mask, slots = self.lookup(ids)
        if not mask.all():
            missing = int(ids[np.argmin(mask)])
            raise KeyError(f"id {missing} is not cached")
        return slots
