"""Sharded key-value store for embedding tables.

Reimplements (in process) the C++ KVStore DGL provides: the full entity and
relation tables are split across machines; every row has one owner machine.
Entity rows are owned by the machine METIS assigned the entity to (the
co-located layout of §V); relation rows are dealt round-robin since
relations are global.

The store itself is storage + ownership only; traffic metering and
optimizer application live in :class:`repro.ps.server.ParameterServer`.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_in, check_positive

#: Table kinds recognised by the store.
ENTITY, RELATION = "entity", "relation"


class ShardedKVStore:
    """Embedding tables plus a row->machine ownership map.

    Parameters
    ----------
    entity_table, relation_table:
        Dense ``(count, width)`` arrays holding all embeddings.  (Stored
        dense for simplicity; ownership determines simulated placement.)
    entity_owner:
        ``(num_entities,)`` machine id per entity row.
    num_machines:
        Cluster size; relation rows are assigned ``id % num_machines``.
    backing:
        ``"resident"`` (default) keeps the dense arrays as-is — bit-identical
        to the pre-tiering store.  ``"tiered"`` replaces each table with a
        :class:`~repro.tier.store.TieredTable` (hot/warm/cold residency
        under a byte budget); the tables still answer every ndarray idiom
        the optimizers and evaluators use.
    tier:
        Optional :class:`~repro.tier.runtime.TierConfig` for the tiered
        backing (budget, policy, scratch directory).  Ignored when
        ``backing="resident"``.
    """

    def __init__(
        self,
        entity_table: np.ndarray,
        relation_table: np.ndarray,
        entity_owner: np.ndarray,
        num_machines: int,
        backing: str = "resident",
        tier=None,
    ) -> None:
        check_positive("num_machines", num_machines)
        check_in("backing", backing, ("resident", "tiered"))
        entity_owner = np.asarray(entity_owner, dtype=np.int64)
        if len(entity_owner) != len(entity_table):
            raise ValueError(
                f"entity_owner has {len(entity_owner)} entries for "
                f"{len(entity_table)} entity rows"
            )
        if entity_owner.size and (
            entity_owner.min() < 0 or entity_owner.max() >= num_machines
        ):
            raise ValueError("entity_owner contains machine ids out of range")
        self._tables = {ENTITY: entity_table, RELATION: relation_table}
        self.backing = backing
        self.tier = None
        if backing == "tiered":
            # Imported lazily: the resident path must not pay for (or
            # depend on) the tier subsystem.
            from repro.tier.runtime import TierRuntime

            self.tier = TierRuntime(self._tables, tier)
            self._tables = dict(self.tier.tables)
        self._owners = {
            ENTITY: entity_owner,
            RELATION: np.arange(len(relation_table), dtype=np.int64) % num_machines,
        }
        self.num_machines = num_machines

    # ----------------------------------------------------------------- access

    def table(self, kind: str) -> np.ndarray:
        """The backing array for ``kind`` (``"entity"`` or ``"relation"``)."""
        try:
            return self._tables[kind]
        except KeyError:
            raise KeyError(f"unknown table kind {kind!r}") from None

    def owners(self, kind: str, ids: np.ndarray) -> np.ndarray:
        """Owner machine of each row in ``ids``."""
        return self._owners[kind][np.asarray(ids, dtype=np.int64)]

    @property
    def entity_owner(self) -> np.ndarray:
        """The whole entity row->machine map (what the constructor took)."""
        return self._owners[ENTITY]

    def rebind(self, kind: str, array: np.ndarray) -> None:
        """Point ``kind`` at other storage of the same shape (a shared
        segment and back).  Tiered tables own their storage and refuse."""
        if self.tier is not None or array.shape != self.table(kind).shape:
            raise ValueError(
                f"cannot rebind the {self.backing} {self.table(kind).shape} "
                f"{kind} table to an array of shape {array.shape}"
            )
        self._tables[kind] = array

    def copy(self, backing: str = "resident", tier=None) -> "ShardedKVStore":
        """An independent store over the same rows and ownership, under
        ``backing``.  A tiered target copies the rows into its own memmap,
        so only a resident one needs a dense copy made here."""
        dense = np.array if backing == "resident" else np.asarray
        tables = [dense(self.table(k), dtype=np.float64) for k in (ENTITY, RELATION)]
        return ShardedKVStore(
            *tables, self.entity_owner.copy(), self.num_machines, backing, tier
        )

    def row_width(self, kind: str) -> int:
        return self.table(kind).shape[1]

    def read(self, kind: str, ids: np.ndarray) -> np.ndarray:
        """Copy of the rows ``ids`` (a pull's payload): indexing by an id
        array already yields a fresh array on every backing."""
        return self.table(kind)[np.asarray(ids, dtype=np.int64)]

    def write(self, kind: str, ids: np.ndarray, rows: np.ndarray) -> None:
        """Overwrite rows (used for checkpoint restore, not training)."""
        self.table(kind)[np.asarray(ids, dtype=np.int64)] = rows

    # ----------------------------------------------------------------- growth

    def grow(
        self, kind: str, rows: np.ndarray, owners: np.ndarray | None = None
    ) -> np.ndarray:
        """Append freshly-initialised ``rows`` to the ``kind`` table.

        Online ingestion (:mod:`repro.stream`) introduces new entities and
        relations mid-run; their embedding rows are appended here and the
        ownership map grows with them.  ``owners`` gives the owning machine
        per new row; when omitted, entity rows are dealt round-robin
        continuing from the current row count, and relation rows keep the
        store's ``id % num_machines`` layout.

        Returns the ids assigned to the new rows (``[old, old + n)``).
        """
        table = self.table(kind)
        rows = np.asarray(rows, dtype=table.dtype).reshape(-1, table.shape[1])
        old = len(table)
        new_ids = np.arange(old, old + len(rows), dtype=np.int64)
        if len(rows) == 0:
            return new_ids
        if owners is None:
            owners = new_ids % self.num_machines
        else:
            owners = np.asarray(owners, dtype=np.int64)
            if len(owners) != len(rows):
                raise ValueError(
                    f"grow got {len(owners)} owners for {len(rows)} rows"
                )
            if owners.size and (
                owners.min() < 0 or owners.max() >= self.num_machines
            ):
                raise ValueError("grow owners contain machine ids out of range")
        if self.tier is not None:
            # Tiered tables extend their backing file in place — streaming
            # growth must not rewrite the whole shard.
            table.grow(rows)
        else:
            self._tables[kind] = np.concatenate([table, rows])
        self._owners[kind] = np.concatenate([self._owners[kind], owners])
        return new_ids

    # ------------------------------------------------------------ bookkeeping

    def owned_ids(self, kind: str, machine: int) -> np.ndarray:
        """All row ids whose shard lives on ``machine``.

        Used by crash recovery: when a machine dies, exactly the rows it
        owned are lost and must be restored from the last checkpoint.
        """
        return np.flatnonzero(self._owners[kind] == machine).astype(np.int64)

    def memory_bytes(self) -> int:
        """Total *logical* embedding storage in bytes (for capacity reports).

        Backing-independent: a tiered table reports the bytes its rows
        would occupy dense, so existing capacity math is unchanged.  Use
        :meth:`memory_report` for the per-tier resident breakdown.
        """
        return int(sum(t.nbytes for t in self._tables.values()))

    def resident_bytes(self) -> int:
        """Bytes actually held in RAM right now (== logical when resident)."""
        if self.tier is not None:
            return sum(t.resident_bytes() for t in self._tables.values())
        return self.memory_bytes()

    def memory_report(self) -> dict:
        """Per-kind/per-tier byte breakdown for telemetry and reports."""
        if self.tier is not None:
            return self.tier.memory_report()
        tables = {
            kind: {
                "backing": "resident",
                "rows": int(len(table)),
                "width": int(table.shape[1]),
                "resident_bytes": int(table.nbytes),
                "logical_bytes": int(table.nbytes),
            }
            for kind, table in sorted(self._tables.items())
        }
        total = self.memory_bytes()
        return {
            "backing": "resident",
            "budget_bytes": None,
            "resident_bytes": total,
            "logical_bytes": total,
            "tables": tables,
        }

    def close(self) -> None:
        """Release tiered scratch files (no-op for the resident backing)."""
        if self.tier is not None:
            self.tier.close()
