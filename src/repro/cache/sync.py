"""Worker-side hot-embedding cache with bounded-staleness synchronization.

Implements the worker half of Algorithms 3/4: a pair of cache tables (one
for entities, one for relations) that

* serve reads locally on hits and pull misses from the parameter server,
* absorb the worker's own gradient updates locally (so a worker always
  sees its own writes), while all gradients are *also* pushed to the PS,
* refresh every cached row from the PS every ``sync_period`` (``P``)
  iterations, which bounds how stale a cached row can be with respect to
  other workers' updates.

All PS traffic is returned as :class:`~repro.ps.network.CommRecord` so the
worker can charge its simulated clock.
"""

from __future__ import annotations

import numpy as np

from repro.cache.filtering import HotSet
from repro.cache.table import CacheStats, CacheTable
from repro.obs.tracer import NULL_SCOPE
from repro.optim.adagrad import SparseAdagrad
from repro.ps.server import ParameterServer
from repro.utils.validation import check_positive


class HotEmbeddingCache:
    """Per-worker hot-embedding tables with periodic synchronization.

    Parameters
    ----------
    server:
        The shared parameter server.
    machine:
        The machine this cache lives on (for local/remote traffic split).
    entity_capacity, relation_capacity:
        Row budgets per table.  The CPS/DPS strategies guarantee the hot
        set's *combined* size stays within the configured total capacity,
        so when the entity ratio is fixed these are the split budgets, and
        when it is disabled (HET-KG-N) both can simply be the total.
    entity_width, relation_width:
        Row widths (from the model geometry).
    sync_period:
        ``P`` — refresh all cached rows from the PS every this many
        iterations.  ``P = 1`` means refresh before every batch (fully
        consistent); larger values trade staleness for communication.
    local_lr:
        Learning rate of the local AdaGrad applied to cached rows (matches
        the server's, so a lone worker behaves like no cache at all).
    """

    def __init__(
        self,
        server: ParameterServer,
        machine: int,
        entity_capacity: int,
        relation_capacity: int,
        entity_width: int,
        relation_width: int,
        sync_period: int,
        local_lr: float,
    ) -> None:
        check_positive("sync_period", sync_period)
        self.server = server
        self.machine = machine
        self.sync_period = sync_period
        self.local_lr = local_lr
        self._tables = {
            "entity": CacheTable(entity_capacity, entity_width),
            "relation": CacheTable(relation_capacity, relation_width),
        }
        self._local_optimizers = {
            "entity": SparseAdagrad(local_lr),
            "relation": SparseAdagrad(local_lr),
        }
        self._iterations_since_sync = 0
        #: Observability scope (bound to the owning worker's clock by the
        #: trainer); defaults to the zero-cost null scope.
        self.trace = NULL_SCOPE
        #: Graceful-degradation accounting: how many periodic syncs could
        #: not reach the PS (and were skipped, serving rows staler than the
        #: bound ``P``), and the worst staleness overrun in iterations.
        self.staleness_overruns = 0
        self.max_staleness_overrun = 0

    # -------------------------------------------------------------- install

    def install(self, hot: HotSet):
        """(Re)build both tables from a new hot set.

        Only ids *entering* the table are pulled from the PS; ids retained
        from the previous membership keep their current rows (the periodic
        ``P``-synchronization bounds their staleness regardless).  This is
        what makes DPS affordable: consecutive windows share most of their
        hot set, so a rebuild moves only the churn, not the whole cache.

        Returns the pull's CommRecord.
        """
        from repro.ps.network import CommRecord

        comm = CommRecord()
        with self.trace.span("cache.install", "cache") as span:
            installed = retained_total = 0
            for kind, ids in (("entity", hot.entities), ("relation", hot.relations)):
                table = self._tables[kind]
                ids = np.asarray(ids, dtype=np.int64)[: table.capacity]
                rows = np.zeros((len(ids), table.width))
                if len(ids):
                    # One vectorized membership + slot pass resolves both
                    # the retained mask and where to copy retained rows from.
                    retained, slots = table.lookup(ids)
                    if retained.any():
                        rows[retained] = table.rows_view()[slots[retained]]
                    fresh_ids = ids[~retained]
                    if len(fresh_ids):
                        pulled, c = self.server.pull(kind, fresh_ids, self.machine)
                        comm.merge(c)
                        rows[~retained] = pulled
                    retained_total += int(retained.sum())
                table.install(ids, rows)
                installed += len(ids)
                # Fresh membership -> fresh local optimizer state.
                self._local_optimizers[kind] = SparseAdagrad(self.local_lr)
            self._iterations_since_sync = 0
            span.set(
                rows=installed,
                retained=retained_total,
                pulled=installed - retained_total,
                bytes=comm.total_bytes,
            )
        self.trace.count("cache.installs")
        return comm

    # ----------------------------------------------------------------- reads

    def fetch(self, kind: str, ids: np.ndarray):
        """Rows for ``ids`` in order: cache hits locally, misses from the PS.

        Returns ``(rows, comm)``.
        """
        from repro.ps.network import CommRecord

        table = self._tables[kind]
        ids = np.asarray(ids, dtype=np.int64)
        with self.trace.span("cache.fetch", "cache", kind=kind) as span:
            hit_mask, hit_ids, miss_ids = table.partition_hits(ids)
            rows = np.empty((len(ids), table.width), dtype=np.float64)
            comm = CommRecord()
            if len(hit_ids):
                rows[hit_mask] = table.get(hit_ids)
            if len(miss_ids):
                pulled, comm_pull = self.server.pull(kind, miss_ids, self.machine)
                comm.merge(comm_pull)
                rows[~hit_mask] = pulled
            span.set(hits=len(hit_ids), misses=len(miss_ids), bytes=comm.total_bytes)
        return rows, comm

    # ---------------------------------------------------------------- writes

    def apply_local_gradients(
        self, kind: str, ids: np.ndarray, grads: np.ndarray
    ) -> None:
        """Apply the worker's own gradients to cached rows (non-cached ids
        are ignored; the PS push covers them)."""
        table = self._tables[kind]
        ids = np.asarray(ids, dtype=np.int64)
        mask, all_slots = table.lookup(ids)
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
        self._local_optimizers[kind].update(
            kind, table.rows_view(), slots, grads[mask], assume_unique=True
        )

    # ------------------------------------------------------------------ sync

    def tick(self):
        """Advance one iteration; every ``P``-th call refreshes all cached
        rows from the PS.  Returns the refresh CommRecord, or ``None``."""
        self._iterations_since_sync += 1
        if self._iterations_since_sync < self.sync_period:
            return None
        return self.force_sync()

    def force_sync(self):
        """Pull the latest version of every cached row from the PS now.

        When the server is wrapped in a fault-injecting RPC channel (it
        exposes ``try_pull``), a refresh whose retry budget exhausts during
        a PS outage *degrades gracefully*: the affected table keeps serving
        its current (stale) rows past the staleness bound ``P``, the
        overrun is recorded, and the sync counter is **not** reset so the
        next iteration retries immediately.
        """
        from repro.ps.network import CommRecord

        comm = CommRecord()
        degradable_pull = getattr(self.server, "try_pull", None)
        with self.trace.span("cache.sync", "cache") as span:
            refreshed = 0
            degraded = False
            for kind, table in self._tables.items():
                ids = table.ids
                if not len(ids):
                    continue
                if degradable_pull is not None:
                    rows, c = degradable_pull(kind, ids)
                else:
                    rows, c = self.server.pull(kind, ids, self.machine)
                comm.merge(c)
                if rows is None:
                    degraded = True
                    continue
                table.set(ids, rows)
                refreshed += len(ids)
            if degraded:
                overrun = max(
                    1, self._iterations_since_sync - self.sync_period + 1
                )
                self.staleness_overruns += 1
                self.max_staleness_overrun = max(
                    self.max_staleness_overrun, overrun
                )
                self.trace.count("cache.stale_overruns")
                span.set(
                    rows=refreshed,
                    bytes=comm.total_bytes,
                    degraded=True,
                    overrun=overrun,
                )
            else:
                self._iterations_since_sync = 0
                span.set(rows=refreshed, bytes=comm.total_bytes)
        self.trace.count("cache.syncs")
        return comm

    # ------------------------------------------------------------- invalidate

    def invalidate(self) -> None:
        """Drop every cached row and all local optimizer state.

        This is what a machine crash does to its worker: the hot tables
        are derived state and vanish with the process.  The strategy's
        setup + :meth:`install` rebuild them afterwards (paying the full
        pull cost again).  Hit/miss counters survive — they describe the
        whole run, crashes included.
        """
        for kind, table in self._tables.items():
            table.install(
                np.empty(0, dtype=np.int64), np.zeros((0, table.width))
            )
            self._local_optimizers[kind] = SparseAdagrad(self.local_lr)
        self._iterations_since_sync = 0

    def invalidate_ids(self, kind: str, ids: np.ndarray) -> int:
        """Evict specific rows from one table (streaming invalidation).

        Online ingestion (:mod:`repro.stream`) deletes triples and rewires
        entities; cached rows for the affected ids would serve embeddings
        for graph structure that no longer exists, so they are dropped.
        Surviving rows keep their values, but the local optimizer state is
        reset (its accumulators are slot-aligned to the old membership and
        cannot be safely permuted).  Returns the number of rows evicted.
        """
        table = self._tables[kind]
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0 or table.occupied == 0:
            return 0
        cached, slots = table.lookup(ids)
        if not cached.any():
            return 0
        # Slot order is install order, so masking slots keeps that order.
        keep_mask = np.ones(table.occupied, dtype=bool)
        keep_mask[slots[cached]] = False
        evicted = table.occupied - int(keep_mask.sum())
        rows = table.rows_view()[: table.occupied][keep_mask]
        table.install(table.ids[keep_mask], rows)
        self._local_optimizers[kind] = SparseAdagrad(self.local_lr)
        self.trace.count("cache.invalidations")
        return evicted

    # ------------------------------------------------------------------ stats

    def stats(self, kind: str) -> CacheStats:
        return self._tables[kind].stats

    def combined_stats(self) -> CacheStats:
        total = CacheStats()
        for table in self._tables.values():
            total.merge(table.stats)
        return total

    def cached_ids(self, kind: str) -> np.ndarray:
        return self._tables[kind].ids
