"""Reference oracle: a graph update applied by scanning every row.

This is the stream's mutation path as it stood before
``TripleIndex`` tracked rows: ``TripleIndexReference`` (distinct keys over
the exact vocabulary sizes, no range check on the needles), the
``KnowledgeGraph.mutated`` that indexed the *deletes* and probed every
existing row against them, the ``EpochSampler.apply_update`` that took the
resulting keep mask, and the ``OnlineTrainer._apply_update`` whose
per-worker block wrote "mask, survivors, concat, construct" a second time.
All four are moved verbatim (methods of ``KnowledgeGraph`` /
``EpochSampler`` became functions of one; the trainer subclass calls the
three others where the original called their successors, and books its
traffic through ``Worker.charge``, which replaced the network model's
``charge``).
``tests/test_graph_mutation.py`` holds the carried-forward index to them
update after update.  Not imported by ``src/``.

The trainer subclass also keeps the eviction side of an update as it
stood while every update rebuilt the global graph:
``HotEmbeddingCache.invalidate_ids`` re-``install``-ing the survivors,
``AdaptiveStale.drop_ids`` masking with ``np.isin``, and
``OnlineTrainer._grow_vocab`` measuring each update's vocabulary against
``self.graph`` — verbatim, the first two as functions of the cache or
strategy they were methods of.  ``tests/test_cache_table.py`` and
``tests/test_cache_sync.py`` hold the live eviction and record masking to
the first two.

Known defect, kept: an id outside the vocabulary in ``deletes`` aliases
another triple's key and removes that triple.  The suite compares on
in-vocabulary updates and pins the fixed behaviour separately.
"""

from __future__ import annotations

import numpy as np

from repro.kg.graph import HEAD, REL, TAIL, KnowledgeGraph
from repro.optim.adagrad import SparseAdagrad
from repro.ps.network import BYTES_PER_ELEMENT, CommRecord
from repro.sampling.cache import CachedNegativeSampler
from repro.sampling.minibatch import EpochSampler
from repro.stream.drift import AdaptiveStale
from repro.stream.events import GraphUpdate
from repro.stream.ingest import TRIPLE_RECORD_BYTES, OnlineTrainer

# ------------------------------------------------------------------ the index


class TripleIndexReference:
    """Vectorized membership index over a fixed triple set.

    Encodes every ``(h, r, t)`` as a single int64 key
    ``(h * num_relations + r) * num_entities + t`` held in a sorted array,
    so a batch of membership queries is one ``np.searchsorted`` probe
    instead of ``b * n`` Python set lookups.  When the vocabulary is large
    enough that the key space would overflow int64 (``E * R * E >= 2**63``)
    the index degrades to set-backed scalar checks — same answers, no
    speedup.
    """

    def __init__(
        self,
        triples: np.ndarray,
        num_entities: int,
        num_relations: int,
    ) -> None:
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        # Overflow guard evaluated in Python ints (arbitrary precision).
        self._vectorized = (
            self.num_entities > 0
            and self.num_relations > 0
            and self.num_entities * self.num_relations * self.num_entities
            < 2**63
        )
        if self._vectorized:
            if len(triples):
                self._keys = np.unique(
                    self._encode(
                        triples[:, HEAD], triples[:, REL], triples[:, TAIL]
                    )
                )
            else:
                self._keys = np.empty(0, dtype=np.int64)
            self._set: set[tuple[int, int, int]] | None = None
        else:
            self._keys = None
            self._set = {(int(h), int(r), int(t)) for h, r, t in triples}

    def __len__(self) -> int:
        if self._vectorized:
            return len(self._keys)
        return len(self._set)

    def _encode(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        return (h * self.num_relations + r) * self.num_entities + t

    def contains_batch(
        self, heads: np.ndarray, rels: np.ndarray, tails: np.ndarray
    ) -> np.ndarray:
        """Boolean mask: which ``(heads[i], rels[i], tails[i])`` are indexed."""
        heads = np.asarray(heads, dtype=np.int64)
        rels = np.asarray(rels, dtype=np.int64)
        tails = np.asarray(tails, dtype=np.int64)
        if not self._vectorized:
            return np.fromiter(
                (
                    (int(h), int(r), int(t)) in self._set
                    for h, r, t in zip(heads, rels, tails)
                ),
                dtype=bool,
                count=len(heads),
            )
        if len(self._keys) == 0 or len(heads) == 0:
            return np.zeros(len(heads), dtype=bool)
        keys = self._encode(heads, rels, tails)
        pos = np.minimum(
            np.searchsorted(self._keys, keys), len(self._keys) - 1
        )
        return self._keys[pos] == keys

    def contains(self, h: int, r: int, t: int) -> bool:
        """Scalar membership check."""
        if not self._vectorized:
            return (int(h), int(r), int(t)) in self._set
        if len(self._keys) == 0:
            return False
        key = (int(h) * self.num_relations + int(r)) * self.num_entities + int(t)
        pos = int(np.searchsorted(self._keys, key))
        return pos < len(self._keys) and int(self._keys[pos]) == key


# ------------------------------------------------------------ graph mutation


def mutated_reference(
    graph: KnowledgeGraph,
    inserts: np.ndarray | None = None,
    deletes: np.ndarray | None = None,
    num_entities: int | None = None,
    num_relations: int | None = None,
) -> "KnowledgeGraph":
    """``KnowledgeGraph.mutated`` as it was: a new graph with ``deletes``
    removed (by value, all occurrences) and ``inserts`` appended, over
    possibly larger vocabularies.

    The graph is untouched — its memoised caches stay valid — and
    the returned graph builds its own caches lazily, so a grown
    graph's :meth:`triple_index`/:meth:`entity_degrees` always see the
    new triples.  ``num_entities``/``num_relations`` default to this
    graph's sizes (they may only grow; ids never shrink mid-stream).

    Returns ``graph`` unchanged when there is nothing to apply.
    """
    n_ent = graph.num_entities if num_entities is None else int(num_entities)
    n_rel = graph.num_relations if num_relations is None else int(num_relations)
    if n_ent < graph.num_entities or n_rel < graph.num_relations:
        raise ValueError(
            "mutated() cannot shrink vocabularies "
            f"({graph.num_entities}->{n_ent} entities, "
            f"{graph.num_relations}->{n_rel} relations)"
        )
    has_inserts = inserts is not None and len(inserts) > 0
    has_deletes = deletes is not None and len(deletes) > 0
    if not has_inserts and not has_deletes and (
        n_ent == graph.num_entities and n_rel == graph.num_relations
    ):
        return graph
    triples = graph.triples
    if has_deletes:
        deletes = np.asarray(deletes, dtype=np.int64).reshape(-1, 3)
        drop_index = TripleIndexReference(deletes, n_ent, n_rel)
        if len(triples):
            keep = ~drop_index.contains_batch(
                triples[:, HEAD], triples[:, REL], triples[:, TAIL]
            )
            triples = triples[keep]
    if has_inserts:
        inserts = np.asarray(inserts, dtype=np.int64).reshape(-1, 3)
        triples = (
            np.concatenate([triples, inserts]) if len(triples) else inserts
        )
    # Labels cannot cover grown vocabularies; drop them on growth.
    grew = n_ent > graph.num_entities or n_rel > graph.num_relations
    return KnowledgeGraph(
        triples,
        num_entities=n_ent,
        num_relations=n_rel,
        entity_labels=None if grew else graph.entity_labels,
        relation_labels=None if grew else graph.relation_labels,
    )


# -------------------------------------------------------------- sampler remap


def apply_update_reference(
    sampler: EpochSampler,
    new_graph: KnowledgeGraph,
    keep_mask: np.ndarray | None = None,
) -> None:
    """``EpochSampler.apply_update`` as it was, keyed by a keep mask.

    Online ingestion (:mod:`repro.stream`) removes some of this
    worker's triples and appends new ones.  ``keep_mask`` flags which
    of the *old* triples survive (``None`` = all); ``new_graph`` holds
    the surviving rows first (in original order) followed by the
    appended rows, over possibly larger vocabularies.

    The in-flight epoch is preserved deterministically: surviving
    not-yet-consumed positions keep their shuffled order (remapped to
    the new row indices), consumed positions stay consumed, and the
    appended rows join the walk at the end of the current epoch — the
    next reshuffle mixes them in fully.  No RNG draws are consumed, so
    an update-free stream leaves the sample sequence bit-identical.
    """
    old_n = sampler.graph.num_triples
    sampler.graph = new_graph
    sampler.negative_sampler.resize(new_graph.num_entities)
    if keep_mask is None:
        keep_mask = np.ones(old_n, dtype=bool)
    else:
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if len(keep_mask) != old_n:
            raise ValueError(
                f"keep_mask has {len(keep_mask)} entries for {old_n} triples"
            )
    if len(sampler._order) == 0:
        # First epoch not started yet; next_batch() reshuffles lazily.
        return
    # Old row index -> new row index for survivors (-1 for deleted).
    new_index = np.cumsum(keep_mask, dtype=np.int64) - 1
    new_index[~keep_mask] = -1
    consumed = sampler._order[: sampler._cursor]
    pending = sampler._order[sampler._cursor :]
    consumed = new_index[consumed]
    consumed = consumed[consumed >= 0]
    pending = new_index[pending]
    pending = pending[pending >= 0]
    n_kept = int(keep_mask.sum())
    appended = np.arange(n_kept, new_graph.num_triples, dtype=np.int64)
    sampler._order = np.concatenate([consumed, pending, appended])
    sampler._cursor = len(consumed)


# ------------------------------------------------------------------ eviction


def invalidate_ids_reference(cache, kind: str, ids: np.ndarray) -> int:
    """``HotEmbeddingCache.invalidate_ids`` as it was: the survivors
    re-``install``-ed.

    Evict specific rows from one table (streaming invalidation).

    Online ingestion (:mod:`repro.stream`) deletes triples and rewires
    entities; cached rows for the affected ids would serve embeddings
    for graph structure that no longer exists, so they are dropped.
    Surviving rows keep their values, but the local optimizer state is
    reset (its accumulators are slot-aligned to the old membership and
    cannot be safely permuted).  Returns the number of rows evicted.
    """
    table = cache._tables[kind]
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
    cache._local_optimizers[kind] = SparseAdagrad(cache.local_lr)
    cache.trace.count("cache.invalidations")
    return evicted


def drop_ids_reference(
    strategy: AdaptiveStale, entities: np.ndarray, relations: np.ndarray
) -> None:
    """``AdaptiveStale.drop_ids`` as it was, masking with ``np.isin``.

    Keep the membership record honest after external invalidation.

    The :class:`~repro.stream.ingest.OnlineTrainer` evicts cache rows
    touched by deletions; removing them from the strategy's view makes
    the next window's Jaccard/coverage reflect the true membership.
    """
    # Both records are sorted and unique (``np.sort`` of a hot set), so
    # masking is ``np.setdiff1d`` without its two ``np.unique`` sorts.
    if len(entities):
        strategy._cached_entities = strategy._cached_entities[
            ~np.isin(strategy._cached_entities, entities)
        ]
    if len(relations):
        strategy._cached_relations = strategy._cached_relations[
            ~np.isin(strategy._cached_relations, relations)
        ]


# ------------------------------------------------------------------ ingestion


class OnlineTrainerReference(OnlineTrainer):
    """``OnlineTrainer`` applying each update the old way."""

    #: A plain attribute, rebuilt by every update: shadows the live
    #: property, whose edit log this trainer never uses.
    graph = None

    def _grow_vocab(self, update: GraphUpdate) -> CommRecord:
        """Append embedding rows for new ids; returns the cold-start bytes
        per owning machine folded into one record (caller charges it)."""
        trainer = self.trainer
        assert trainer.server is not None and self.graph is not None
        store = trainer.server.store
        comm = CommRecord()
        n_new_ent = update.num_entities - self.graph.num_entities
        n_new_rel = update.num_relations - self.graph.num_relations
        byte_scale = trainer.config.byte_scale
        if n_new_ent > 0:
            rows = trainer.model.init_entities(n_new_ent, self._ingest_rng)
            store.grow("entity", rows)
            comm.remote_bytes += int(
                round(rows.size * BYTES_PER_ELEMENT * byte_scale)
            )
            self.entities_added += n_new_ent
        if n_new_rel > 0:
            rows = trainer.model.init_relations(n_new_rel, self._ingest_rng)
            store.grow("relation", rows)
            comm.remote_bytes += int(
                round(rows.size * BYTES_PER_ELEMENT * byte_scale)
            )
            self.relations_added += n_new_rel
        if comm.remote_bytes:
            comm.remote_messages = 1
        return comm

    def _apply_update(self, update: GraphUpdate) -> None:
        trainer = self.trainer
        assert trainer.server is not None and self.graph is not None
        store = trainer.server.store

        # Test-then-train: the holdout sees the inserts before any worker
        # trains on them.
        if len(update.inserts):
            self.evaluator.observe(update.inserts)

        init_comm = self._grow_vocab(update)

        inserts = np.asarray(update.inserts, dtype=np.int64).reshape(-1, 3)
        deletes = np.asarray(update.deletes, dtype=np.int64).reshape(-1, 3)
        n_ent, n_rel = update.num_entities, update.num_relations
        drop_index = (
            TripleIndexReference(deletes, n_ent, n_rel) if len(deletes) else None
        )
        affected_entities = (
            np.unique(np.concatenate([deletes[:, HEAD], deletes[:, TAIL]]))
            if len(deletes)
            else np.empty(0, dtype=np.int64)
        )
        affected_relations = (
            np.unique(deletes[:, REL])
            if len(deletes)
            else np.empty(0, dtype=np.int64)
        )

        # Route inserts to the machine owning the head entity (the
        # co-located layout streaming writes follow too).
        by_machine = {w.machine: w for w in trainer.workers}
        machines = sorted(by_machine)
        if len(inserts):
            owners = store.owners("entity", inserts[:, HEAD])
            owners = np.where(
                np.isin(owners, machines),
                owners,
                np.asarray(machines, dtype=np.int64)[
                    owners % len(machines)
                ],
            )
        else:
            owners = np.empty(0, dtype=np.int64)

        deleted_total = 0
        for machine in machines:
            worker = by_machine[machine]
            local = worker.sampler.graph
            local_inserts = inserts[owners == machine] if len(inserts) else inserts
            if drop_index is not None and local.num_triples:
                t = local.triples
                keep = ~drop_index.contains_batch(
                    t[:, HEAD], t[:, REL], t[:, TAIL]
                )
            else:
                keep = np.ones(local.num_triples, dtype=bool)
            deleted_here = int((~keep).sum())
            deleted_total += deleted_here
            if (
                len(local_inserts) == 0
                and deleted_here == 0
                and n_ent == local.num_entities
                and n_rel == local.num_relations
            ):
                continue
            with worker.trace.span(
                "ingest.apply", "ingest",
                inserts=len(local_inserts), deletes=deleted_here,
            ):
                survivors = local.triples[keep]
                new_triples = (
                    np.concatenate([survivors, local_inserts])
                    if len(local_inserts)
                    else survivors
                )
                new_local = KnowledgeGraph(
                    new_triples, num_entities=n_ent, num_relations=n_rel
                )
                apply_update_reference(
                    worker.sampler, new_local, keep_mask=keep
                )
                # Stale cache rows: ids whose graph structure was deleted.
                if worker.cache is not None:
                    evicted = invalidate_ids_reference(
                        worker.cache, "entity", affected_entities
                    )
                    evicted += invalidate_ids_reference(
                        worker.cache, "relation", affected_relations
                    )
                    self.cache_rows_invalidated += evicted
                    if isinstance(worker.strategy, AdaptiveStale):
                        drop_ids_reference(
                            worker.strategy, affected_entities,
                            affected_relations,
                        )
                # Hard negatives scored against deleted structure: drop the
                # affected keys (and purge deleted ids from survivors).
                neg_sampler = worker.sampler.negative_sampler
                if isinstance(neg_sampler, CachedNegativeSampler) and (
                    len(affected_entities) or len(affected_relations)
                ):
                    self.neg_cache_keys_invalidated += (
                        neg_sampler.invalidate_ids(
                            affected_entities, affected_relations
                        )
                    )
                # Delivery traffic: the update's triple records reach this
                # machine from outside the cluster.
                record_count = len(local_inserts) + deleted_here
                comm = CommRecord(
                    remote_bytes=record_count * TRIPLE_RECORD_BYTES,
                    remote_messages=1 if record_count else 0,
                )
                worker.charge(comm, "ingest")
            worker.trace.count("worker.ingests")

        # Cold-start rows land on their owning shards; charge the slowest
        # (first) machine's clock — one write fan-out per update.
        if init_comm.total_bytes and machines:
            worker = by_machine[machines[0]]
            with worker.trace.span(
                "ingest.cold_start", "ingest", bytes=init_comm.total_bytes
            ):
                worker.charge(init_comm, "ingest")

        # Refresh the false-negative filter against the post-update graph.
        self.graph = mutated_reference(
            self.graph,
            inserts=inserts if len(inserts) else None,
            deletes=deletes if len(deletes) else None,
            num_entities=n_ent,
            num_relations=n_rel,
        )
        if trainer.config.filter_false_negatives:
            for worker in trainer.workers:
                worker.sampler.negative_sampler.resize(
                    n_ent, filter_graph=self.graph
                )

        self.updates_applied += 1
        self.triples_inserted += len(inserts)
        self.triples_deleted += deleted_total
