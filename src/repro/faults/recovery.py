"""Crash-restart machinery: periodic checkpoints and shard restoration.

The simulated cluster co-locates one worker and one PS shard per machine
(the paper's §V layout), so a machine crash loses two things:

* the worker's **hot-embedding cache** — derived state, rebuilt by
  re-running the CPS/DPS setup (prefetch → filter → install), paying the
  full communication cost again;
* the machine's **PS shard** — authoritative state, rewound to the last
  checkpoint.  Rows owned by surviving shards keep their progress, exactly
  as in a real sharded-PS recovery.

:class:`CheckpointManager` takes an in-memory snapshot (a copy of the
server's state arrays) every ``every`` global iterations, and — when
given a path — also persists it through
:func:`repro.core.checkpoint.save_checkpoint`, whose atomic write
guarantees a crash mid-save never corrupts the archive.
Snapshotting itself is *not* charged to any clock (modelled as an
asynchronous copy-on-write snapshot); recovery is charged in full to the
crashed machine's clock by the worker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ps.network import BYTES_PER_ELEMENT
from repro.ps.server import ParameterServer, state_kind


@dataclass
class CheckpointSnapshot:
    """One point-in-time copy of the global training state: a copy of every
    :meth:`~repro.ps.server.ParameterServer.state_arrays` entry, by name."""

    step: int
    arrays: dict[str, np.ndarray]


class CheckpointManager:
    """Periodic snapshots of a trainer's parameter-server state.

    Parameters
    ----------
    trainer:
        A set-up :class:`~repro.core.trainer.HETKGTrainer` (or subclass).
    every:
        Snapshot every this many global iterations (``None`` = only when
        :meth:`snapshot` is called explicitly).
    path:
        Optional ``.npz`` destination; every snapshot is also written to
        disk atomically via :func:`repro.core.checkpoint.save_checkpoint`.
    """

    def __init__(self, trainer, every: int | None = None, path=None) -> None:
        if every is not None and every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {every}")
        self.trainer = trainer
        self.every = every
        self.path = path
        self.last: CheckpointSnapshot | None = None
        self.saves = 0

    def maybe_snapshot(self, step: int) -> bool:
        """Snapshot iff a period boundary was reached; returns whether."""
        if self.every is None or step % self.every != 0:
            return False
        self.snapshot(step)
        return True

    def snapshot(self, step: int) -> CheckpointSnapshot:
        """Copy the server's state arrays right now."""
        server = self.trainer.server
        if server is None:
            raise RuntimeError("trainer has no state yet; call setup() or train()")
        self.last = CheckpointSnapshot(
            step, {name: a.copy() for name, a in server.state_arrays().items()}
        )
        self.saves += 1
        if self.path is not None:
            from repro.core.checkpoint import save_checkpoint

            save_checkpoint(self.trainer, self.path)
        return self.last


class ShardRecovery:
    """Restores a crashed machine's PS shard from the last checkpoint.

    Returns the number of (wire-scaled) bytes reloaded so the worker can
    convert the restore into simulated seconds through the plan's
    ``recovery_bandwidth``.
    """

    def __init__(self, server: ParameterServer, checkpoints: CheckpointManager) -> None:
        self.server = server
        self.checkpoints = checkpoints

    def restore(self, machine: int) -> int:
        """Rewind rows owned by ``machine`` to the last snapshot.

        Without any snapshot yet there is nothing to rewind (the shard is
        modelled as recovered from its co-located replica): only the
        worker-local cache is lost, and 0 bytes are reported.
        """
        snap = self.checkpoints.last
        if snap is None:
            return 0
        store = self.server.store
        restored_bytes = 0
        for name, live in self.server.state_arrays().items():
            kind = state_kind(name)
            ids = store.owned_ids(kind, machine)
            if ids.size == 0:
                continue
            live[ids] = snap.arrays[name][ids]
            if name == kind:  # the reload is charged per table row
                restored_bytes += int(
                    ids.size
                    * store.row_width(kind)
                    * BYTES_PER_ELEMENT
                    * self.server.byte_scale
                )
        return restored_bytes
