"""Reference oracle: a training step's id bookkeeping as it was.

Three paths of the worker step, kept verbatim from before each was
rewritten, so the live ones can be held to them bit for bit
(``tests/test_batch_index.py``, ``tests/test_step_bookkeeping.py``):

* :func:`index_reference` — ``MiniBatch.index`` as one
  ``np.unique(..., return_inverse=True)`` over the entity occurrences and
  one over the relations (the live index ranks them through the sampler's
  ``SlotMap``);
* :class:`SparseAdagradReference` — ``SparseAdagrad.update`` as its
  one-line expression, one temporary per operation (the live update writes
  the same operations into two arrays);
* :func:`fetch_reference` / :func:`apply_local_gradients_reference` —
  ``HotEmbeddingCache.fetch`` through ``CacheTable.partition_hits`` and
  ``get``, and ``apply_local_gradients`` through a second ``lookup`` (the
  live cache resolves each table's ids once per step).  The two table
  methods, since deleted from ``src/``, live on here as functions, over
  ``lookup`` and ``slot_of`` as they were, before ``lookup`` remembered
  its last answer.

Not imported by ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.kg.graph import HEAD, REL, TAIL
from repro.optim.adagrad import SparseAdagrad
from repro.optim.base import coalesce
from repro.sampling.negative import BatchIndex, MiniBatch


def index_reference(batch: MiniBatch) -> BatchIndex:
    """The batch's sorted unique ids and every occurrence's position in
    them, by ``np.unique`` (the former ``MiniBatch.index`` body; it does not
    freeze or cache)."""
    entities, entity_positions = np.unique(
        np.concatenate(
            [
                batch.positives[:, HEAD],
                batch.positives[:, TAIL],
                batch.neg_entities.ravel(),
            ]
        ),
        return_inverse=True,
    )
    relations, relation_positions = np.unique(
        batch.positives[:, REL], return_inverse=True
    )
    return BatchIndex(entities, entity_positions, relations, relation_positions)


class SparseAdagradReference(SparseAdagrad):
    """``SparseAdagrad`` with the former ``update``."""

    def update(
        self,
        table_name: str,
        table: np.ndarray,
        row_ids: np.ndarray,
        grads: np.ndarray,
        assume_unique: bool = False,
    ) -> None:
        if len(row_ids) == 0:
            return
        if assume_unique:
            ids, g = row_ids, grads
        else:
            ids, g = coalesce(row_ids, grads)
        acc = self.state_for(table_name, table)
        # Step from the sum just computed, not from a re-read of ``acc``:
        # on the shared accumulator of the async mp backend another worker
        # can store a stale value between the write and the read, and a
        # stale 0 turns the step into ``lr * g / sqrt(eps)``.
        total = acc[ids] + g * g
        acc[ids] = total
        table[ids] -= self.lr * g / np.sqrt(total + self.eps)


# ------------------------------------------------------------ cache table


def lookup(table, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized membership + slot resolution in one gather.

    Returns ``(mask, slots)`` where ``mask[i]`` says whether ``ids[i]``
    is cached and ``slots[i]`` is its slot (``-1`` for misses).
    """
    ids = np.asarray(ids, dtype=np.int64)
    slot = table._slot
    # Negative ids wrap past every id as uint64: one compare bounds both.
    inside = ids.view(np.uint64) < len(slot)
    if inside.all():
        slots = slot[ids]
    else:
        slots = np.full(len(ids), -1, dtype=np.int64)
        slots[inside] = slot[ids[inside]]
    return slots >= 0, slots


def slot_of(table, ids: np.ndarray) -> np.ndarray:
    """Slot index of each cached id; raises ``KeyError`` for a miss."""
    ids = np.asarray(ids, dtype=np.int64)
    mask, slots = lookup(table, ids)
    if not mask.all():
        missing = int(ids[np.argmin(mask)])
        raise KeyError(f"id {missing} is not cached")
    return slots


def partition_hits(table, ids: np.ndarray):
    """Split ``ids`` into (mask, cached, not-cached), updating hit stats.

    Duplicate ids count once per occurrence, matching how a worker's
    accesses are metered.
    """
    ids = np.asarray(ids, dtype=np.int64)
    mask, _ = lookup(table, ids)
    hits = int(mask.sum())
    table.stats.hits += hits
    table.stats.misses += int(len(ids) - hits)
    return mask, ids[mask], ids[~mask]


def get(table, ids: np.ndarray) -> np.ndarray:
    """Rows for ``ids`` (every id must be cached). Returns a copy."""
    slots = slot_of(table, ids)
    return table.rows_view()[slots].copy()


# -------------------------------------------------------- hot-embedding cache


def fetch_reference(cache, kind: str, ids: np.ndarray):
    """Rows for ``ids`` in order: cache hits locally, misses from the PS.

    Returns ``(rows, comm)``.
    """
    from repro.ps.network import CommRecord

    table = cache._tables[kind]
    ids = np.asarray(ids, dtype=np.int64)
    with cache.trace.span("cache.fetch", "cache", kind=kind) as span:
        hit_mask, hit_ids, miss_ids = partition_hits(table, ids)
        rows = np.empty((len(ids), table.width), dtype=np.float64)
        comm = CommRecord()
        if len(hit_ids):
            rows[hit_mask] = get(table, hit_ids)
        if len(miss_ids):
            pulled, comm_pull = cache.server.pull(kind, miss_ids)
            comm.merge(comm_pull)
            rows[~hit_mask] = pulled
        span.set(hits=len(hit_ids), misses=len(miss_ids), bytes=comm.total_bytes)
    return rows, comm


def apply_local_gradients_reference(
    cache, kind: str, ids: np.ndarray, grads: np.ndarray
) -> None:
    """Apply the worker's own gradients to cached rows (non-cached ids
    are ignored; the PS push covers them)."""
    table = cache._tables[kind]
    ids = np.asarray(ids, dtype=np.int64)
    mask, all_slots = lookup(table, ids)
    if not mask.any():
        return
    slots = all_slots[mask]
    # rows_view() hands out the whole backing array; the occupied-prefix
    # invariant guarantees live slots never index the zeroed tail.
    assert int(slots.max()) < table.occupied, (
        f"slot {int(slots.max())} outside live membership "
        f"({table.occupied} rows)"
    )
    # ``ids`` is the batch's sorted-unique id array, so the surviving
    # slots are distinct by construction — skip the coalescing scan.
    cache._local_optimizers[kind].update(
        kind, table.rows_view(), slots, grads[mask], assume_unique=True
    )
