"""Parameter server: metered pull/push over the sharded KVStore.

Implements the server side of the paper's Algorithm 4:

* ``pull``  — return the latest embedding rows for a set of ids
  (``localPull``/``remotePull`` folded into one call that meters local and
  remote traffic separately).
* ``push``  — receive gradients and immediately apply the server-side
  optimizer (sparse AdaGrad), i.e. the asynchronous-parallel protocol: no
  barrier, gradients update the global tables as they arrive.

Every call returns a :class:`~repro.ps.network.CommRecord`; the caller
(worker) converts it to simulated seconds via its machine's
:class:`~repro.ps.network.NetworkModel` and advances its clock.  Workers
call in through their machine's :class:`~repro.faults.rpc.PSChannel`,
which traces, times and (under faults) retries each call.
"""

from __future__ import annotations

import numpy as np

from repro.optim.base import SparseOptimizer
from repro.ps.compression import Compressor, NoCompression
from repro.ps.kvstore import ENTITY, RELATION, ShardedKVStore
from repro.ps.network import BYTES_PER_ELEMENT, CommRecord, meter_rows

#: Name prefix of an optimizer-state array in
#: :meth:`ParameterServer.state_arrays`; the rest is its table's kind.
OPT_PREFIX = "opt_"


def state_kind(name: str) -> str:
    """The table kind whose rows (and ownership) a state array follows."""
    return name.removeprefix(OPT_PREFIX)


class ParameterServer:
    """Global embedding state shared by all simulated machines.

    Parameters
    ----------
    store:
        The sharded tables with ownership.
    optimizer:
        Server-side optimizer applied on push (the paper uses AdaGrad).
    byte_scale:
        Multiplier applied to metered bytes.  Used to charge traffic at the
        paper's embedding dimension (d = 400) while the actual tables stay
        small for tractability; see ``TrainingConfig.wire_dim``.
    compressor:
        Optional lossy wire codec applied to *remote* transfers only
        (local shared-memory access moves raw float64 rows).  Shrinks
        metered remote bytes by the codec's factor and injects the codec's
        quantization error into remote payloads.
    """

    def __init__(
        self,
        store: ShardedKVStore,
        optimizer: SparseOptimizer,
        byte_scale: float = 1.0,
        compressor: Compressor | None = None,
    ) -> None:
        if byte_scale <= 0:
            raise ValueError(f"byte_scale must be positive, got {byte_scale}")
        self.store = store
        self.optimizer = optimizer
        self.byte_scale = byte_scale
        self.compressor = compressor if compressor is not None else NoCompression()

    # ------------------------------------------------------------------ state

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every array of the global training state, by name.

        ``"entity"``/``"relation"`` are the tables; ``"opt_entity"``/
        ``"opt_relation"`` the optimizer's per-element history, present
        iff the optimizer keeps one (allocated here if still untouched —
        zeros, so describing the state changes no value).  This is the
        one definition of "the state" that checkpoints, crash recovery
        and the mp backend copy, save, share and restore.
        """
        arrays = {kind: self.store.table(kind) for kind in (ENTITY, RELATION)}
        for kind in (ENTITY, RELATION):
            state = self.optimizer.state_for(kind, arrays[kind])
            if state is not None:
                arrays[OPT_PREFIX + kind] = state
        return arrays

    def rebind(self, arrays: dict[str, np.ndarray]) -> None:
        """Point the :meth:`state_arrays` names at other storage holding
        the same values (shared segments, or private copies of them)."""
        for name, array in arrays.items():
            if name.startswith(OPT_PREFIX):
                self.optimizer.state[state_kind(name)] = array
            else:
                self.store.rebind(name, array)

    # ------------------------------------------------------------------ pulls

    def pull(
        self, kind: str, ids: np.ndarray, machine: int
    ) -> tuple[np.ndarray, CommRecord]:
        """Fetch rows ``ids`` for a worker on ``machine``.

        Returns ``(rows, comm)`` where ``comm`` meters the bytes that came
        from the local shard vs over the network.  Rows are returned in the
        order of ``ids``.
        """
        ids = self._checked_ids(kind, ids)
        rows = self.store.read(kind, ids)
        # One ownership gather feeds both the compression split and the
        # traffic metering (previously three gathers + two np.unique).
        owners = self.store.owners(kind, ids)
        if not self.compressor.is_identity:
            remote = owners != machine
            if remote.any():
                rows[remote] = self.compressor.roundtrip(rows[remote])
        return rows, self._meter_owned(kind, owners, machine)

    # ----------------------------------------------------------------- pushes

    def push(
        self, kind: str, ids: np.ndarray, grads: np.ndarray, machine: int
    ) -> CommRecord:
        """Send gradients for rows ``ids``; the server applies the optimizer
        immediately (asynchronous protocol, no barrier)."""
        ids = self._checked_ids(kind, ids)
        if len(ids) != len(grads):
            raise ValueError(
                f"push got {len(ids)} ids but {len(grads)} gradient rows"
            )
        owners = self.store.owners(kind, ids)
        comm = self._meter_owned(kind, owners, machine)
        if not self.compressor.is_identity:
            remote = owners != machine
            if remote.any():
                grads = np.asarray(grads, dtype=np.float64).copy()
                grads[remote] = self.compressor.roundtrip(grads[remote])
        self.optimizer.update(kind, self.store.table(kind), ids, grads)
        return comm

    # --------------------------------------------------------------- metering

    def meter(self, kind: str, ids: np.ndarray, machine: int) -> CommRecord:
        """Public traffic estimate for moving rows ``ids`` to/from
        ``machine`` **without** touching any state.

        :class:`~repro.faults.rpc.PSChannel` uses this to account the wire
        cost of attempts whose payload was lost in transit (a dropped push
        must not apply the optimizer, but its bytes still crossed the
        network).  One message per contacted server shard.
        """
        ids = self._checked_ids(kind, ids)
        return self._meter_owned(kind, self.store.owners(kind, ids), machine)

    def touched_shards(self, kind: str, ids: np.ndarray) -> np.ndarray:
        """Distinct shard (machine) ids an operation on ``ids`` contacts."""
        return np.unique(self.store.owners(kind, self._checked_ids(kind, ids)))

    # ---------------------------------------------------------------- private

    def _checked_ids(self, kind: str, ids) -> np.ndarray:
        """``ids`` as int64 row ids of table ``kind``, or ``ValueError``
        naming the table and a bad id.  The one check at the PS boundary:
        a cast alone would read row 2 for id 2.9, the last row for -1 and
        rows 1, 0 for ``[True, False]`` — on every backing."""
        ids = np.asarray(ids)
        if ids.size == 0:
            return ids.astype(np.int64)
        if ids.dtype.kind not in "iu":
            raise ValueError(
                f"{kind} ids must be integers; got {ids.flat[0].item()!r} "
                f"(dtype {ids.dtype})"
            )
        rows = len(self.store.table(kind))
        # One reduction: viewed unsigned, a negative id is a huge one.
        if int(ids.view(f"u{ids.itemsize}").max()) >= rows:
            lo, hi = ids.min(), ids.max()
            raise ValueError(
                f"{kind} id {lo if lo < 0 else hi} is out of range for a "
                f"table of {rows} rows"
            )
        return ids.astype(np.int64, copy=False)

    def _meter_owned(
        self, kind: str, owners: np.ndarray, machine: int
    ) -> CommRecord:
        """Metering from a precomputed ownership array: ``pull``/``push``
        gather ownership once and reuse it here."""
        return meter_rows(
            owners,
            machine,
            self.store.row_width(kind) * BYTES_PER_ELEMENT * self.byte_scale,
            self.compressor.byte_factor,
        )
