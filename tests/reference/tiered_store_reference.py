"""Reference oracle: the ``CacheTable``-backed tiered row store.

This is ``repro/tier/store.py`` as it stood before the hot tier became a
block -> slot map over one flat array: hot blocks held as the flattened
rows of a :class:`~repro.cache.table.CacheTable`, every access resolved
through its sorted-id ``searchsorted`` lookup, every rebalance
re-installing the whole hot set.  Moved verbatim, this docstring aside
and ``CacheTable.get``, since deleted, read through the copy kept in
``tests/reference/step_bookkeeping_reference.py`` (``cached_rows``).
``tests/test_tier_equivalence.py`` holds the live table to it: output
bytes, counters, the ``tier.*`` clock as ``float.hex``, reports, budget
charges, hot membership and cold payloads.  Not imported by ``src/``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.cache.table import CacheTable
from repro.obs.tracer import NULL_SCOPE, TraceScope
from repro.ps.compression import Compressor, get_compressor
from repro.tier.budget import MemoryBudget
from repro.tier.policy import TierMeter, TierPolicy
from tests.reference.step_bookkeeping_reference import get as cached_rows

#: Per-block residency states (int8 codes in :attr:`TieredTable._state`).
WARM, HOT, COLD = 0, 1, 2


def _payload_bytes(payload: tuple[np.ndarray, ...]) -> int:
    """Resident size of one encoded cold block."""
    return sum(a.nbytes for a in payload)


@dataclass
class TierStats:
    """Cumulative row/block movement counters for one tiered table."""

    hot_rows: int = 0
    warm_rows: int = 0
    cold_rows: int = 0
    passes: int = 0
    skipped_passes: int = 0
    promoted_blocks: int = 0
    promoted_from_cold: int = 0
    evicted_blocks: int = 0
    encoded_blocks: int = 0
    writeback_bytes: int = 0
    promote_bytes: int = 0
    grow_rows: int = 0
    grow_bytes_written: int = 0

    @property
    def accesses(self) -> int:
        return self.hot_rows + self.warm_rows + self.cold_rows

    @property
    def hit_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hot_rows / self.accesses

    def as_dict(self) -> dict:
        return {
            "hot_rows": self.hot_rows,
            "warm_rows": self.warm_rows,
            "cold_rows": self.cold_rows,
            "accesses": self.accesses,
            "hit_ratio": self.hit_ratio,
            "passes": self.passes,
            "skipped_passes": self.skipped_passes,
            "promoted_blocks": self.promoted_blocks,
            "promoted_from_cold": self.promoted_from_cold,
            "evicted_blocks": self.evicted_blocks,
            "encoded_blocks": self.encoded_blocks,
            "writeback_bytes": self.writeback_bytes,
            "promote_bytes": self.promote_bytes,
            "grow_rows": self.grow_rows,
            "grow_bytes_written": self.grow_bytes_written,
        }


class TieredTable:
    """A budgeted hot/warm/cold row store masquerading as a dense table.

    Parameters
    ----------
    array:
        Initial table contents; copied into the backing file (the caller's
        array is not retained).
    name:
        Table name (``"entity"``/``"relation"``); used for budget-ledger
        keys and reports.
    path:
        Backing memmap file, created (and truncated) by the constructor.
    budget:
        The shared :class:`MemoryBudget` ledger this table reports into.
    slice_bytes:
        This table's share of the budget (``None`` = unlimited).  The
        runtime splits the total proportionally to logical table size so
        two tables never race for the same bytes.
    policy, meter:
        Residency policy and the SimClock-charging cost meter.
    """

    def __init__(
        self,
        array: np.ndarray,
        *,
        name: str,
        path: str | os.PathLike[str],
        budget: MemoryBudget,
        slice_bytes: int | None,
        policy: TierPolicy,
        meter: TierMeter,
    ) -> None:
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError(f"expected a 2-D table, got shape {array.shape}")
        self.name = name
        self.policy = policy
        self.meter = meter
        self._budget = budget
        self._slice = None if slice_bytes is None else int(slice_bytes)
        #: ``cold_codec="none"`` means no cold tier, not an identity codec.
        self._codec: Compressor | None = (
            None if policy.cold_codec == "none" else get_compressor(policy.cold_codec)
        )
        self._path = os.fspath(path)
        self._width = int(array.shape[1])
        self._block = int(policy.block_rows)
        self._block_bytes = self._block * self._width * 8
        self._rows = int(array.shape[0])
        padded = self._padded_rows(self._rows)
        self._mm = np.memmap(
            self._path, dtype=np.float64, mode="w+", shape=(padded, self._width)
        )
        if self._rows:
            self._mm[: self._rows] = array
        nblocks = padded // self._block
        self._state = np.full(nblocks, WARM, dtype=np.int8)
        self._counts = np.zeros(nblocks, dtype=np.float64)
        self._window = np.zeros(nblocks, dtype=np.float64)
        self._idle = np.zeros(nblocks, dtype=np.int64)
        self._hot = CacheTable(
            self._hot_capacity(nblocks), self._block * self._width
        )
        self._cold: dict[int, tuple[np.ndarray, ...]] = {}
        self._cold_bytes = 0
        self._accesses_window = 0
        self._hot_hits_window = 0
        self.stats = TierStats()
        self._trace: TraceScope = NULL_SCOPE
        self._closed = False

    # ------------------------------------------------------------ array facade

    @property
    def shape(self) -> tuple[int, int]:
        return (self._rows, self._width)

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64)

    @property
    def ndim(self) -> int:
        return 2

    @property
    def nbytes(self) -> int:
        """Logical dense size — what the table *would* occupy resident."""
        return self._rows * self._width * 8

    def __len__(self) -> int:
        return self._rows

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        arr = self.materialize()
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        return arr

    def copy(self) -> np.ndarray:
        """Dense snapshot (used by fault-recovery shadowing)."""
        return self.materialize()

    def __getitem__(self, key):
        if isinstance(key, slice):
            ids = np.arange(*key.indices(self._rows), dtype=np.int64)
            return self._fetch(ids, count=False)
        if isinstance(key, (int, np.integer)):
            return self.read(np.asarray([key], dtype=np.int64))[0]
        arr = np.asarray(key)
        if arr.dtype == bool:
            return self.read(np.flatnonzero(arr))
        ids = arr.astype(np.int64, copy=False)
        if ids.ndim == 1:
            return self.read(ids)
        flat = self.read(ids.ravel())
        return flat.reshape(ids.shape + (self._width,))

    def __setitem__(self, key, value) -> None:
        if isinstance(key, slice):
            start, stop, step = key.indices(self._rows)
            if (start, stop, step) == (0, self._rows, 1):
                self._overwrite_all(value)
                return
            ids = np.arange(start, stop, step, dtype=np.int64)
        elif isinstance(key, (int, np.integer)):
            ids = np.asarray([key], dtype=np.int64)
            value = np.asarray(value, dtype=np.float64).reshape(1, -1)
        else:
            arr = np.asarray(key)
            ids = (
                np.flatnonzero(arr)
                if arr.dtype == bool
                else arr.astype(np.int64, copy=False).ravel()
            )
        rows = np.asarray(value, dtype=np.float64)
        if rows.ndim != 2 or len(rows) != len(ids):
            rows = np.broadcast_to(rows, (len(ids), self._width))
        self.write(ids, rows)

    # ------------------------------------------------------------------- reads

    def read(self, ids: np.ndarray) -> np.ndarray:
        """Rows for ``ids`` (fresh array), counting hotness and tier hits."""
        out = self._fetch(np.asarray(ids, dtype=np.int64), count=True)
        self._maybe_rebalance()
        return out

    def _fetch(self, ids: np.ndarray, *, count: bool) -> np.ndarray:
        n = len(ids)
        out = np.empty((n, self._width), dtype=np.float64)
        if n == 0:
            return out
        ids = self._normalize(ids)
        blocks = ids // self._block
        offs = ids - blocks * self._block
        mask, slots = self._hot.lookup(blocks)
        hits = int(mask.sum())
        if hits:
            hot3 = self._hot.rows_view().reshape(-1, self._block, self._width)
            out[mask] = hot3[slots[mask], offs[mask]]
        misses = n - hits
        if misses:
            pos = np.flatnonzero(~mask)
            cold_sel = self._state[blocks[pos]] == COLD
            warm_pos = pos[~cold_sel]
            if len(warm_pos):
                out[warm_pos] = self._mm[ids[warm_pos]]
                self.meter.warm_read(len(warm_pos) * self._width * 8)
            cold_pos = pos[cold_sel]
            if len(cold_pos):
                cblocks = blocks[cold_pos]
                decoded = 0
                for b in np.unique(cblocks):
                    rows = self._decode_cold(int(b))
                    sel = cold_pos[cblocks == b]
                    out[sel] = rows[offs[sel]]
                    decoded += 1
                self.meter.dequant(decoded * self._block * self._width)
            if count:
                self.stats.warm_rows += len(warm_pos)
                self.stats.cold_rows += len(cold_pos)
        if count:
            self.stats.hot_rows += hits
            self._window += np.bincount(blocks, minlength=len(self._window))
            self._accesses_window += n
            self._hot_hits_window += hits
        return out

    def materialize(self) -> np.ndarray:
        """Dense float64 copy of the whole logical table.

        Values read exactly as demand reads would: hot blocks from their
        cache copy, cold blocks decoded.  Not metered — bulk snapshots
        (checkpoint, eval tables) carry their own cost accounting.
        """
        out = np.array(self._mm[: self._rows], dtype=np.float64)
        hot_ids = self._hot.ids
        if len(hot_ids):
            hot3 = self._hot.rows_view().reshape(-1, self._block, self._width)
            slots = self._hot.slot_of(hot_ids)
            for b, s in zip(hot_ids.tolist(), slots.tolist()):
                lo = b * self._block
                hi = min(lo + self._block, self._rows)
                out[lo:hi] = hot3[s, : hi - lo]
        for b in sorted(self._cold):
            rows = self._decode_cold(b)
            lo = b * self._block
            hi = min(lo + self._block, self._rows)
            out[lo:hi] = rows[: hi - lo]
        return out

    # ------------------------------------------------------------------ writes

    def write(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Overwrite rows ``ids`` with ``rows``, counting accesses."""
        ids = np.asarray(ids, dtype=np.int64)
        n = len(ids)
        if n == 0:
            return
        ids = self._normalize(ids)
        rows = np.asarray(rows, dtype=np.float64)
        blocks = ids // self._block
        offs = ids - blocks * self._block
        mask, slots = self._hot.lookup(blocks)
        hits = int(mask.sum())
        if hits:
            hot3 = self._hot.rows_view().reshape(-1, self._block, self._width)
            hot3[slots[mask], offs[mask]] = rows[mask]
        if n - hits:
            pos = np.flatnonzero(~mask)
            cold_blocks = np.unique(blocks[pos][self._state[blocks[pos]] == COLD])
            for b in cold_blocks:
                self._revive_cold(int(b))
            self._mm[ids[pos]] = rows[pos]
            self.meter.writeback(len(pos) * self._width * 8)
            self.stats.warm_rows += len(pos)
        self.stats.hot_rows += hits
        self._window += np.bincount(blocks, minlength=len(self._window))
        self._accesses_window += n
        self._hot_hits_window += hits
        self._maybe_rebalance()

    def _overwrite_all(self, value) -> None:
        """``table[:] = value`` — checkpoint restore.

        Everything lands exact: the memmap becomes authoritative for warm
        blocks, hot copies are refreshed from the new values, and cold
        blocks are dropped (revived warm) since their quantized payloads
        no longer describe the table.
        """
        value = np.asarray(value, dtype=np.float64)
        if value.shape != (self._rows, self._width):
            raise ValueError(
                f"cannot assign shape {value.shape} to table of shape {self.shape}"
            )
        self._mm[: self._rows] = value
        if self._cold:
            self._state[np.fromiter(self._cold, dtype=np.int64)] = WARM
            self._cold.clear()
            self._cold_bytes = 0
        hot_ids = self._hot.ids
        if len(hot_ids):
            self._hot.install(hot_ids, self._gather_mm_blocks(hot_ids))
        self._charge_budget()

    # ------------------------------------------------------------------ growth

    def grow(self, rows: np.ndarray) -> None:
        """Append rows by extending the backing file in place.

        Streaming vocab growth must not rewrite the shard: the file is
        ``truncate``-extended and the memmap reopened at the larger shape,
        so only the appended bytes are written
        (:attr:`TierStats.grow_bytes_written` pins this in tests).
        """
        rows = np.asarray(rows, dtype=np.float64).reshape(-1, self._width)
        n_new = len(rows)
        if n_new == 0:
            return
        old_rows = self._rows
        # The trailing partial block may have resident copies whose padding
        # region the new rows land in; demote it warm so the append is seen.
        if old_rows % self._block:
            self._demote_block_to_warm(old_rows // self._block)
        new_rows = old_rows + n_new
        new_padded = self._padded_rows(new_rows)
        if new_padded > len(self._mm):
            self._mm.flush()
            with open(self._path, "r+b") as f:
                f.truncate(new_padded * self._width * 8)
            self._mm = np.memmap(
                self._path,
                dtype=np.float64,
                mode="r+",
                shape=(new_padded, self._width),
            )
            grown = new_padded // self._block - len(self._state)
            self._state = np.concatenate(
                [self._state, np.full(grown, WARM, dtype=np.int8)]
            )
            self._counts = np.concatenate([self._counts, np.zeros(grown)])
            self._window = np.concatenate([self._window, np.zeros(grown)])
            self._idle = np.concatenate(
                [self._idle, np.zeros(grown, dtype=np.int64)]
            )
        self._mm[old_rows:new_rows] = rows
        self._rows = new_rows
        self.stats.grow_rows += n_new
        self.stats.grow_bytes_written += n_new * self._width * 8
        self.meter.grow(n_new * self._width * 8)
        new_cap = self._hot_capacity(len(self._state))
        if new_cap > self._hot.capacity:
            members = self._hot.ids
            replacement = CacheTable(new_cap, self._block * self._width)
            if len(members):
                replacement.install(members, cached_rows(self._hot, members))
            self._hot = replacement

    # --------------------------------------------------------------- rebalance

    def _maybe_rebalance(self) -> None:
        if self._accesses_window >= self.policy.pass_rows:
            self.rebalance()

    def rebalance(self) -> None:
        """Run one promotion/demotion pass now (normally automatic)."""
        with self._trace.span("tier.rebalance", "tier", table=self.name) as span:
            self.stats.passes += 1
            accesses = self._accesses_window
            hit_rate = (
                self._hot_hits_window / accesses if accesses else 1.0
            )
            self._counts *= self.policy.decay
            self._counts += self._window
            touched = self._window > 0
            self._idle = np.where(touched, 0, self._idle + 1)
            skipped = bool(accesses) and hit_rate >= self.policy.target_hit_rate
            if skipped:
                self.stats.skipped_passes += 1
                promoted = evicted = encoded = 0
            else:
                promoted, evicted = self._repack()
                encoded = self._sweep_cold()
            self._window[:] = 0.0
            self._accesses_window = 0
            self._hot_hits_window = 0
            self._charge_budget()
            span.set(
                hit_rate=hit_rate,
                skipped=skipped,
                promoted=promoted,
                evicted=evicted,
                encoded=encoded,
                hot_blocks=len(self._hot),
                cold_blocks=len(self._cold),
            )

    def _repack(self) -> tuple[int, int]:
        """Re-derive the hot membership from decayed counts.

        Deterministic: blocks rank by ``(-count, block_id)`` via lexsort,
        evictions take the coldest current members first, and the final
        membership is installed in ascending block order.
        """
        counts = self._counts
        n = len(counts)
        k_max = self._affordable_hot_blocks()
        order = np.lexsort((np.arange(n), -counts))
        ranked = order[counts[order] > 0.0]
        desired = ranked[:k_max]
        cur = self._hot.ids
        not_desired = cur[~np.isin(cur, desired)]
        # Eviction is bounded for churn, but the budget bound must win: if
        # affordability shrank (cold grew), evict enough to fit regardless.
        min_evict = max(0, len(cur) - k_max)
        n_evict = max(
            min(len(not_desired), self.policy.max_evict_per_pass), min_evict
        )
        if n_evict and len(not_desired):
            ev_order = np.lexsort((not_desired, counts[not_desired]))
            to_evict = not_desired[ev_order[:n_evict]]
        else:
            to_evict = not_desired[:0]
        if len(to_evict):
            self._writeback_blocks(to_evict)
        keep = cur[~np.isin(cur, to_evict)]
        room = k_max - len(keep)
        cand = desired[~np.isin(desired, cur)]
        promote = cand[: max(0, room)]
        new_ids = np.concatenate([keep, promote])
        new_rows = np.empty(
            (len(new_ids), self._block * self._width), dtype=np.float64
        )
        if len(keep):
            new_rows[: len(keep)] = cached_rows(self._hot, keep)
        if len(promote):
            from_cold = self._state[promote] == COLD
            warm_promote = promote[~from_cold]
            if len(warm_promote):
                sel = np.flatnonzero(~from_cold) + len(keep)
                new_rows[sel] = self._gather_mm_blocks(warm_promote)
                self.meter.promote(len(warm_promote) * self._block_bytes)
                self.stats.promote_bytes += len(warm_promote) * self._block_bytes
            cold_promote = promote[from_cold]
            for i, b in zip(np.flatnonzero(from_cold) + len(keep), cold_promote):
                new_rows[i] = self._pop_cold(int(b)).ravel()
            if len(cold_promote):
                self.meter.dequant(
                    len(cold_promote) * self._block * self._width
                )
                self.stats.promoted_from_cold += len(cold_promote)
        final = np.argsort(new_ids, kind="stable")
        self._hot.install(new_ids[final], new_rows[final])
        self._state[to_evict] = WARM
        self._state[new_ids] = HOT
        self.stats.promoted_blocks += len(promote)
        self.stats.evicted_blocks += len(to_evict)
        return len(promote), len(to_evict)

    def _sweep_cold(self) -> int:
        """Quantize long-idle warm blocks, coldest first, while they fit."""
        if self._codec is None:
            return 0
        cand = np.flatnonzero(
            (self._state == WARM) & (self._idle >= self.policy.cold_after_passes)
        )
        if not len(cand):
            return 0
        cand = cand[np.lexsort((cand, self._counts[cand]))]
        enc_bytes = self._codec.resident_bytes_per_row(self._width) * self._block
        n_new = min(len(cand), self.policy.max_evict_per_pass)
        if self._slice is not None:
            hot_bytes = len(self._hot) * self._block_bytes
            room = self._slice - hot_bytes - self._cold_bytes
            n_new = min(n_new, max(0, int(room // enc_bytes)))
        for b in cand[:n_new].tolist():
            enc = self._codec.encode(
                np.asarray(self._mm[b * self._block : (b + 1) * self._block])
            )
            self._cold[b] = enc
            self._cold_bytes += _payload_bytes(enc)
            self._state[b] = COLD
        if n_new:
            self.meter.quant(n_new * self._block * self._width)
            self.stats.encoded_blocks += n_new
        return int(n_new)

    # --------------------------------------------------------------- reporting

    def hot_fraction(self) -> float:
        """Fraction of logical rows currently in the hot tier."""
        if self._rows == 0:
            return 0.0
        return min(1.0, len(self._hot) * self._block / self._rows)

    def resident_bytes(self) -> int:
        return len(self._hot) * self._block_bytes + self._cold_bytes

    def report(self) -> dict:
        nblocks = len(self._state)
        return {
            "backing": "tiered",
            "rows": self._rows,
            "width": self._width,
            "block_rows": self._block,
            "blocks": nblocks,
            "hot_blocks": len(self._hot),
            "cold_blocks": len(self._cold),
            "warm_blocks": nblocks - len(self._hot) - len(self._cold),
            "hot_bytes": len(self._hot) * self._block_bytes,
            "cold_bytes": self._cold_bytes,
            "resident_bytes": self.resident_bytes(),
            "logical_bytes": self.nbytes,
            "file_bytes": int(self._mm.nbytes),
            "slice_bytes": self._slice,
            "hot_fraction": self.hot_fraction(),
            **self.stats.as_dict(),
        }

    def bind_trace(self, scope: TraceScope) -> None:
        self._trace = scope

    def close(self) -> None:
        """Flush and unmap the backing file (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._mm.flush()
        mmap_obj = getattr(self._mm, "_mmap", None)
        self._mm = np.empty((0, self._width), dtype=np.float64)
        if mmap_obj is not None:
            mmap_obj.close()

    # ----------------------------------------------------------------- private

    def _padded_rows(self, rows: int) -> int:
        blocks = max(1, -(-rows // self._block))
        return blocks * self._block

    def _hot_capacity(self, nblocks: int) -> int:
        if self._slice is None:
            return nblocks
        return min(nblocks, self._slice // self._block_bytes)

    def _affordable_hot_blocks(self) -> int:
        n = len(self._state)
        if self._slice is None:
            return n
        k = int((self._slice - self._cold_bytes) // self._block_bytes)
        return min(max(0, k), self._hot.capacity, n)

    def _normalize(self, ids: np.ndarray) -> np.ndarray:
        lo = int(ids.min())
        if lo < 0:
            ids = np.where(ids < 0, ids + self._rows, ids)
            lo = int(ids.min())
        if lo < 0 or int(ids.max()) >= self._rows:
            raise IndexError(
                f"ids out of range for table with {self._rows} rows"
            )
        return ids

    def _gather_mm_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Flattened ``(k, block_rows*width)`` rows for blocks, from mmap."""
        idx = (
            blocks[:, None] * self._block + np.arange(self._block)[None, :]
        ).ravel()
        return np.asarray(self._mm[idx]).reshape(len(blocks), -1)

    def _writeback_blocks(self, blocks: np.ndarray) -> None:
        rows = cached_rows(self._hot, blocks).reshape(-1, self._block, self._width)
        for i, b in enumerate(blocks.tolist()):
            self._mm[b * self._block : (b + 1) * self._block] = rows[i]
        nbytes = len(blocks) * self._block_bytes
        self.meter.writeback(nbytes)
        self.stats.writeback_bytes += nbytes

    def _decode_cold(self, block: int) -> np.ndarray:
        assert self._codec is not None
        return self._codec.decode(self._cold[block])

    def _pop_cold(self, block: int) -> np.ndarray:
        rows = self._decode_cold(block)
        self._cold_bytes -= _payload_bytes(self._cold.pop(block))
        return rows

    def _revive_cold(self, block: int) -> None:
        """Write a cold block's decoded values back to the memmap (warm)."""
        rows = self._pop_cold(block)
        self._mm[block * self._block : (block + 1) * self._block] = rows
        self._state[block] = WARM
        self.meter.dequant(self._block * self._width)

    def _demote_block_to_warm(self, block: int) -> None:
        state = int(self._state[block])
        if state == HOT:
            members = self._hot.ids
            keep = members[members != block]
            # Fetch surviving rows before install() reshuffles the backing
            # array, and write the demoted block back while it is still hot.
            keep_rows = (
                cached_rows(self._hot, keep)
                if len(keep)
                else np.empty((0, self._block * self._width))
            )
            self._writeback_blocks(np.asarray([block], dtype=np.int64))
            self._hot.install(keep, keep_rows)
            self._state[block] = WARM
        elif state == COLD:
            self._revive_cold(block)

    def _charge_budget(self) -> None:
        self._budget.charge(
            f"{self.name}.hot", len(self._hot) * self._block_bytes
        )
        self._budget.charge(f"{self.name}.cold", self._cold_bytes)

    def __repr__(self) -> str:
        return (
            f"TieredTable(name={self.name!r}, rows={self._rows}, "
            f"width={self._width}, hot={len(self._hot)}, "
            f"cold={len(self._cold)}, blocks={len(self._state)})"
        )
