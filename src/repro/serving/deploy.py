"""Cliff-free continuous deployment: trainer checkpoints into serving.

The streaming story (PR 5) ends with a trained-online model and a
serving tier that started warm *once*.  In production the trainer never
stops: every few minutes a fresher checkpoint exists, and swapping it
into the serving path naively costs a **hit-ratio cliff** — the serving
cache's rows are stale against the new tables, invalidating them sends
every hot row back to the shards at once, and p99 spikes exactly when
the deployment was supposed to be invisible.

:class:`VersionedStore` is the double-buffered fix: the frontend reads
through an *active* :class:`~repro.serving.store.EmbeddingStore` while
the next version sits fully materialised in a *staging* slot.
:meth:`VersionedStore.swap` is atomic from the reader's point of view —
one reference assignment between batches; no query ever observes half a
version.

:class:`ContinuousDeployment` runs the publish protocol:

1. snapshot the trainer's tables (a copy — the trainer keeps mutating
   its own) into the staging slot;
2. **re-warm before the swap**: re-pin the serving cache's membership
   from the trainer's current hot tables
   (:meth:`~repro.serving.frontend.ServingFrontend.warm_from`, which
   preserves the configured cache's capacity and policy) and meter the
   background warm-up pull traffic — off the latency path, the way a
   real deployment pre-faults the new replica's cache while the old one
   still serves;
3. swap, stamping the serving version and its trainer step.

Staleness of served embeddings is a first-class metric: the gap between
the trainer's latest published step and the step of the version
currently serving (``VersionedStore.staleness``), surfaced on
:class:`~repro.serving.metrics.ServingReport`.

Disabling step 2 (``rewarm=False``) reproduces the naive deployment:
the swap invalidates the cache and the hit ratio cliffs until the hot
set re-admits — the control the ``serving-scale`` experiment measures.
"""

from __future__ import annotations

import numpy as np

from repro.ps.network import CommRecord
from repro.serving.store import EmbeddingStore


class VersionedStore:
    """Double-buffered embedding store with atomic version swaps.

    Drop-in for :class:`EmbeddingStore` wherever the frontend reads it:
    attribute access delegates to the *active* version, so
    ``versioned.store`` / ``versioned.model`` / ``score_triples`` always
    resolve against the embeddings currently being served.
    """

    def __init__(self, store: EmbeddingStore, trainer_step: int = 0) -> None:
        self._active = store
        self._staging: EmbeddingStore | None = None
        self._staging_step = 0
        #: Monotone version counter (0 = the initial deployment).
        self.version = 0
        #: Trainer step the active version was checkpointed at.
        self.active_step = int(trainer_step)
        #: Latest trainer step made known via :meth:`note_trainer_step`.
        self.latest_step = int(trainer_step)
        #: Completed swaps.
        self.swaps = 0
        #: Swap history as ``(version, trainer_step)`` stamps.
        self.history: list[tuple[int, int]] = [(0, int(trainer_step))]

    # ------------------------------------------------------------ delegation

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._active, name)

    @property
    def active(self) -> EmbeddingStore:
        return self._active

    @property
    def staging(self) -> EmbeddingStore | None:
        return self._staging

    # --------------------------------------------------------------- publish

    def note_trainer_step(self, step: int) -> None:
        """Record trainer progress (drives the staleness metric)."""
        self.latest_step = max(self.latest_step, int(step))

    @property
    def staleness(self) -> int:
        """Served-version age: trainer steps the active version is behind."""
        return self.latest_step - self.active_step

    def stage(self, store: EmbeddingStore, trainer_step: int) -> None:
        """Materialise the next version in the staging slot.

        Geometry (shard count, model dims) must match the active version
        — the frontend's ownership metering and scoring assume it.
        """
        active = self._active
        if store.store.num_machines != active.store.num_machines:
            raise ValueError(
                f"staged version has {store.store.num_machines} shards, "
                f"active has {active.store.num_machines}"
            )
        if (
            store.model.entity_dim != active.model.entity_dim
            or store.model.relation_dim != active.model.relation_dim
        ):
            raise ValueError("staged version's model geometry differs from active")
        self._staging = store
        self._staging_step = int(trainer_step)
        self.note_trainer_step(trainer_step)

    def swap(self) -> int:
        """Atomically promote staging to active; returns the new version."""
        if self._staging is None:
            raise RuntimeError("no staged version to swap in (call stage() first)")
        self._active = self._staging
        self._staging = None
        self.active_step = self._staging_step
        self.version += 1
        self.swaps += 1
        self.history.append((self.version, self.active_step))
        return self.version


def snapshot_from_trainer(trainer) -> EmbeddingStore:
    """Copy a trainer's current tables into an independent serving store.

    Unlike :meth:`EmbeddingStore.from_trainer` (zero-copy, live), the
    snapshot is immutable under continued training — exactly what a
    published checkpoint is.  Ownership and shard count carry over so
    serving-side locality still matches the training partition.
    """
    if trainer.server is None:
        raise RuntimeError("trainer has no state yet; call setup() or train()")
    return EmbeddingStore(trainer.model, trainer.server.store.copy())


class _TrainerHotMembership:
    """The union of a trainer's per-worker hot-table memberships.

    Quacks like :class:`~repro.cache.sync.HotEmbeddingCache` for
    :meth:`~repro.serving.frontend.ServingFrontend.warm_from` — ids are
    deduplicated and sorted, so the membership is deterministic whatever
    the worker iteration order.
    """

    def __init__(self, trainer) -> None:
        self._trainer = trainer

    def cached_ids(self, kind: str) -> np.ndarray:
        chunks = [
            np.asarray(w.cache.cached_ids(kind), dtype=np.int64)
            for w in self._trainer.workers
            if w.cache is not None
        ]
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(chunks))


class ContinuousDeployment:
    """The trainer→serving publish loop over one frontend.

    Parameters
    ----------
    versioned:
        The :class:`VersionedStore` the frontend was constructed over.
    frontend:
        The live :class:`~repro.serving.frontend.ServingFrontend`.
    rewarm:
        Default re-warm behaviour per publish (overridable per call).
        ``False`` is the naive swap: invalidate and eat the cliff.
    """

    def __init__(self, versioned: VersionedStore, frontend, rewarm: bool = True) -> None:
        self.versioned = versioned
        self.frontend = frontend
        self.rewarm = rewarm
        #: Background warm-up traffic metered across all publishes.
        self.warm_traffic = CommRecord()

    def publish(self, trainer, step: int, rewarm: bool | None = None) -> int:
        """Snapshot ``trainer`` at ``step``, re-warm, swap; new version.

        The warm-up pull happens *before* the swap and off the latency
        path: its bytes are metered (into the frontend's comm totals and
        :attr:`warm_traffic`) but the serving clock does not advance —
        the pre-fault overlaps with the old version still serving.
        """
        rewarm = self.rewarm if rewarm is None else rewarm
        snapshot = snapshot_from_trainer(trainer)
        self.versioned.stage(snapshot, step)
        frontend = self.frontend
        with frontend.trace.span(
            "serve.swap", "deploy", version=self.versioned.version + 1, step=step
        ) as span:
            warmed = 0
            if rewarm and frontend.cache is not None:
                membership = _TrainerHotMembership(trainer)
                for kind in ("entity", "relation"):
                    ids = membership.cached_ids(kind)
                    if len(ids):
                        comm = frontend._meter(kind, ids)
                        self.warm_traffic.merge(comm)
                        frontend.comm_totals.merge(comm)
                        warmed += len(ids)
                frontend.warm_from(membership)
            elif frontend.cache is not None:
                frontend.cache.invalidate()
            version = self.versioned.swap()
            span.set(rewarmed_rows=warmed)
        frontend.trace.count("serve.swaps")
        if warmed:
            frontend.trace.count("serve.swap.warmed_rows", warmed)
        return version
