"""Negative sampling by triple corruption.

Two strategies from §V of the paper:

* **independent** — every positive draws its own ``n_neg`` corrupting
  entities (the classic TransE recipe, complexity ``O(b_p * d * (b_n+1))``).
* **chunked** — the PBG/DGL-KE batched strategy: the mini-batch is split
  into chunks of ``chunk_size`` positives that *share* one set of ``n_neg``
  corrupting entities, reducing both sampling cost and the number of unique
  embeddings a batch touches (complexity ``O(b_p d + b_p k d / b_c)``).

The sampler corrupts heads or tails (chosen per chunk) and can optionally
filter out corruptions that collide with true triples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kg.graph import HEAD, REL, TAIL, KnowledgeGraph
from repro.utils.rng import make_rng
from repro.utils.validation import check_in, check_positive


@dataclass(frozen=True)
class BatchIndex:
    """Where every id occurrence of a :class:`MiniBatch` sits in the
    batch's sorted unique ids (what :meth:`MiniBatch.index` returns).

    ``entities[entity_positions]`` is the concatenation of the heads, the
    tails and the row-major negatives; ``relations[relation_positions]``
    is the positives' relation column.  All four arrays are read-only.
    """

    entities: np.ndarray
    entity_positions: np.ndarray
    relations: np.ndarray
    relation_positions: np.ndarray

    def __post_init__(self) -> None:
        for array in vars(self).values():
            array.flags.writeable = False


class SlotMap:
    """An id -> slot scratch array that :meth:`MiniBatch.index` ranks ids in.

    A :class:`NegativeSampler` owns one and hands it to every batch it
    builds, so indexing a batch allocates no id-sized array.  Its contents
    mean nothing between calls, so it never travels: a pickled map
    unpickles empty and regrows on first use.
    """

    def __init__(self, size_hint: int = 0) -> None:
        #: Entries allocated on first use (the sampler's entity count).
        self.size_hint = size_hint
        self._slot = np.empty(0, dtype=np.int64)

    def __reduce__(self):
        return (SlotMap, (self.size_hint,))

    def rank(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``np.unique(values, return_inverse=True)`` for non-negative ids,
        in time linear in ``len(values)`` plus a sort of the distinct ids.

        ``slot[values] = arange(n)`` leaves exactly one occurrence of each
        distinct id reading back its own position, whichever duplicate
        write won; those ids, sorted, are the unique ids, and writing their
        ranks into ``slot`` turns one more gather into the inverse.
        """
        n = len(values)
        if n == 0:
            return values.copy(), np.empty(0, dtype=np.intp)
        if values.min() < 0:
            raise ValueError(f"batch ids must be non-negative, got {int(values.min())}")
        top = int(values.max()) + 1
        if top > len(self._slot):
            self._slot = np.empty(
                max(top, 2 * len(self._slot), self.size_hint), dtype=np.int64
            )
        slot, order = self._slot, np.arange(n)
        slot[values] = order
        unique = np.sort(values[slot[values] == order])
        slot[unique] = order[: len(unique)]
        return unique, slot[values]


def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that refuses writes (``array`` itself keeps its
    flags, so no caller-owned array is frozen behind its owner's back)."""
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass
class MiniBatch:
    """One training step's worth of samples.

    Attributes
    ----------
    positives:
        ``(b, 3)`` positive triples.
    neg_entities:
        ``(b, n_neg)`` entity ids that corrupt each positive.
    corrupt_head:
        ``(b,)`` bool; ``True`` rows corrupt the head, others the tail.

    The batch carries its own index: the first call to :meth:`index` (or
    :meth:`unique_entities` / :meth:`unique_relations`) ranks the entity
    occurrences and the relations through ``slot_map`` (the sampler's
    :class:`SlotMap`; a batch built without one makes its own) and caches
    the result, so a step resolves each id once.  Taking the index freezes the batch — the three attributes
    become read-only views, and a later in-place rewrite raises instead of
    training on a stale index.  Every in-place writer (false-negative
    resampling, the hard-negative cache's mix) runs inside the sampler's
    ``corrupt``, before the batch is handed out.
    """

    positives: np.ndarray
    neg_entities: np.ndarray
    corrupt_head: np.ndarray
    slot_map: SlotMap | None = field(default=None, repr=False, compare=False)
    _index: BatchIndex | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        return len(self.positives)

    @property
    def num_negatives(self) -> int:
        return self.neg_entities.shape[1]

    def index(self) -> BatchIndex:
        """The batch's sorted unique ids and every occurrence's position in
        them (computed once, then cached; freezes the batch)."""
        if self._index is None:
            self.positives = _read_only(self.positives)
            self.neg_entities = _read_only(self.neg_entities)
            self.corrupt_head = _read_only(self.corrupt_head)
            slot_map = self.slot_map if self.slot_map is not None else SlotMap()
            entities, entity_positions = slot_map.rank(
                np.concatenate(
                    [
                        self.positives[:, HEAD],
                        self.positives[:, TAIL],
                        self.neg_entities.ravel(),
                    ]
                )
            )
            relations, relation_positions = slot_map.rank(self.positives[:, REL])
            self._index = BatchIndex(
                entities, entity_positions, relations, relation_positions
            )
        return self._index

    def unique_entities(self) -> np.ndarray:
        """Sorted unique entity ids this batch touches (pos + neg)."""
        return self.index().entities

    def unique_relations(self) -> np.ndarray:
        """Sorted unique relation ids this batch touches."""
        return self.index().relations


class NegativeSampler:
    """Corrupt positive triples into negatives.

    Parameters
    ----------
    num_entities:
        Size of the corruption pool (entities are drawn uniformly).
    num_negatives:
        Negatives per positive (``b_n`` in the paper).
    strategy:
        ``"independent"`` or ``"chunked"`` (see module docstring).
    chunk_size:
        Positives per shared-negative chunk (``b_c``); only used by the
        chunked strategy.
    filter_graph:
        When given, corruptions that produce a true triple of this graph are
        resampled (up to a few retries) — avoids training on false
        negatives.
    entity_pool:
        Optional restricted id pool to corrupt from (PBG corrupts within
        the entity partitions of the current bucket); default is the full
        ``[0, num_entities)`` range.
    """

    def __init__(
        self,
        num_entities: int,
        num_negatives: int = 8,
        strategy: str = "chunked",
        chunk_size: int = 16,
        filter_graph: KnowledgeGraph | None = None,
        entity_pool: np.ndarray | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        check_positive("num_entities", num_entities)
        check_positive("num_negatives", num_negatives)
        check_positive("chunk_size", chunk_size)
        check_in("strategy", strategy, ("independent", "chunked"))
        self.num_entities = num_entities
        self.num_negatives = num_negatives
        self.strategy = strategy
        self.chunk_size = chunk_size
        self._filter_index = (
            filter_graph.triple_index() if filter_graph is not None else None
        )
        if entity_pool is not None:
            entity_pool = np.asarray(entity_pool, dtype=np.int64)
            if len(entity_pool) == 0:
                raise ValueError("entity_pool must not be empty")
        self.entity_pool = entity_pool
        self._rng = make_rng(seed)
        #: The scratch every batch this sampler builds indexes through.
        self.slot_map = SlotMap(num_entities)
        #: Corruptions that exhausted their false-negative resample retries
        #: and stayed a true triple (monotone; see
        #: :meth:`_resample_false_negatives`).  Surfaced by trainers as
        #: ``TrainResult.false_negative_leaks`` and the ``Telemetry``
        #: ``false_negative_leaks`` counter.
        self.false_negative_leaks = 0

    def _draw_entities(self, size) -> np.ndarray:
        """Uniform corrupting entities from the pool or the full range."""
        if self.entity_pool is None:
            return self._rng.integers(0, self.num_entities, size=size)
        idx = self._rng.integers(0, len(self.entity_pool), size=size)
        return self.entity_pool[idx]

    # ----------------------------------------------------------------- public

    def corrupt(self, positives: np.ndarray) -> MiniBatch:
        """Build a :class:`MiniBatch` corrupting ``positives``."""
        positives = np.asarray(positives, dtype=np.int64)
        if positives.ndim != 2 or positives.shape[1] != 3:
            raise ValueError(f"positives must be (b, 3), got {positives.shape}")
        b = len(positives)
        if b == 0:
            return MiniBatch(
                positives,
                np.zeros((0, self.num_negatives), dtype=np.int64),
                np.zeros(0, dtype=bool),
                self.slot_map,
            )
        if self.strategy == "independent":
            neg = self._draw_entities((b, self.num_negatives))
            corrupt_head = self._rng.random(b) < 0.5
        else:
            neg = np.empty((b, self.num_negatives), dtype=np.int64)
            corrupt_head = np.empty(b, dtype=bool)
            for start in range(0, b, self.chunk_size):
                stop = min(start + self.chunk_size, b)
                shared = self._draw_entities(self.num_negatives)
                neg[start:stop] = shared[None, :]
                corrupt_head[start:stop] = self._rng.random() < 0.5
        batch = MiniBatch(positives, neg, corrupt_head, self.slot_map)
        if self._filter_index is not None:
            self._resample_false_negatives(batch)
        return batch

    def resize(
        self, num_entities: int, filter_graph: KnowledgeGraph | None = None
    ) -> None:
        """Grow the corruption pool to ``num_entities`` ids.

        Online ingestion (:mod:`repro.stream`) introduces new entities;
        after a resize, freshly-drawn corruptions may hit the new ids.  The
        pool can only grow — shrinking would invalidate ids already handed
        out.  Passing ``filter_graph`` also refreshes the false-negative
        filter so newly-inserted true triples stop being drawn as
        negatives.  No RNG draws are consumed, so resizing to the *same*
        size with no new filter is a no-op for determinism.
        """
        check_positive("num_entities", num_entities)
        if num_entities < self.num_entities:
            raise ValueError(
                f"corruption pool can only grow: {self.num_entities} -> "
                f"{num_entities}"
            )
        if num_entities > self.num_entities and self.entity_pool is not None:
            raise ValueError(
                f"resize({num_entities}) conflicts with the restricted "
                f"entity_pool ({len(self.entity_pool)} ids): _draw_entities "
                "only samples the pool, so the grown ids would silently "
                "never be drawn — rebuild the sampler with a grown pool "
                "(or entity_pool=None) instead"
            )
        self.num_entities = num_entities
        if filter_graph is not None:
            self._filter_index = filter_graph.triple_index()

    # ---------------------------------------------------------------- private

    def _resample_false_negatives(self, batch: MiniBatch, retries: int = 10) -> None:
        """Replace corruptions that collide with true triples, in place.

        Collision *detection* is one vectorized
        :meth:`~repro.kg.graph.TripleIndex.contains_batch` probe over all
        ``b * n`` corrupted triples (it consumes no randomness); only the
        colliding entries then run the original per-entry retry loop, in
        row-major order, so the RNG draw sequence is bit-identical to the
        scalar reference that checked every entry against a Python set of
        the true triples (kept in ``tests/test_perf_equivalence.py``; no
        such set exists in the library).
        """
        assert self._filter_index is not None
        n = batch.num_negatives
        if batch.size == 0 or n == 0:
            return
        pos = batch.positives
        flat = batch.neg_entities.ravel()
        heads_rep = np.repeat(batch.corrupt_head, n)
        cand_h = np.where(heads_rep, flat, np.repeat(pos[:, HEAD], n))
        cand_t = np.where(heads_rep, np.repeat(pos[:, TAIL], n), flat)
        collide = self._filter_index.contains_batch(
            cand_h, np.repeat(pos[:, REL], n), cand_t
        )
        if not collide.any():
            return
        for k in np.flatnonzero(collide):
            i, j = divmod(int(k), n)
            h, r, t = (int(x) for x in pos[i])
            head = bool(batch.corrupt_head[i])
            e = int(batch.neg_entities[i, j])
            candidate = (e, r, t) if head else (h, r, e)
            attempts = 0
            while self._filter_index.contains(*candidate) and attempts < retries:
                e = int(self._draw_entities(1)[0])
                candidate = (e, r, t) if head else (h, r, e)
                attempts += 1
            if self._filter_index.contains(*candidate):
                # Retries exhausted on a dense filter neighbourhood: the
                # false negative stays in the batch (resampling forever
                # could spin on fully-connected anchors).  Count the leak
                # so trainers can surface it instead of hiding it.
                self.false_negative_leaks += 1
            batch.neg_entities[i, j] = e
