"""Reference oracle: hotness counts as id -> count dicts.

Before ``repro.cache.hotness.HotnessTable`` every producer and consumer of
hotness counts spoke ``dict[int, int]`` (``dict[int, float]`` once ADAPTIVE
had decayed them).  These are those implementations, moved verbatim when
the table replaced them: the dict filter (``_as_arrays``, ``_top_ids``,
``filter_hot_ids``), ADAPTIVE's float ranking and decayed accumulate
(``_top_ids_float``, ``_decay_into``) and the whole dict-based
``AdaptiveStale`` (``_coverage``, ``_tuned_ratio``, ``_build_hot``,
``_refill``).  ``tests/test_hotness.py`` holds the table-based code to them
window after window.  Not imported by ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cache.filtering import HotSet, split_slots
from repro.cache.strategies import HotEmbeddingStrategy
from repro.sampling.minibatch import EpochSampler
from repro.sampling.negative import MiniBatch
from repro.stream.drift import DriftDetector
from repro.utils.validation import check_fraction, check_positive
from tests.reference.prefetch_reference import _count_batch

# ------------------------------------------------------------ Algorithm 1/2


@dataclass
class PrefetchResultReference:
    """``PrefetchResult`` with dict counts."""

    batches: list[MiniBatch]
    entity_counts: dict[int, int] = field(default_factory=dict)
    relation_counts: dict[int, int] = field(default_factory=dict)

    @property
    def total_entity_accesses(self) -> int:
        return sum(self.entity_counts.values())

    @property
    def total_relation_accesses(self) -> int:
        return sum(self.relation_counts.values())


def prefetch_reference(
    sampler: EpochSampler, iterations: int
) -> PrefetchResultReference:
    """Algorithm 1 with the per-batch dict counter."""
    result = PrefetchResultReference(batches=sampler.prefetch(iterations))
    for batch in result.batches:
        _count_batch(batch, result.entity_counts, result.relation_counts)
    return result


def _as_arrays(counts: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(ids, counts) column arrays of a count dict (insertion order)."""
    n = len(counts)
    ids = np.fromiter(counts.keys(), dtype=np.int64, count=n)
    vals = np.fromiter(counts.values(), dtype=np.int64, count=n)
    return ids, vals


def _top_ids(counts: dict[int, int], k: int) -> np.ndarray:
    """Ids of the ``k`` highest counts, descending (ties broken by id for
    determinism).

    Vectorized: one ``np.lexsort`` on ``(-count, id)`` keys replaces the
    Python ``sorted(counts.items())`` pass, preserving the exact
    deterministic tie-break order (lexsort's last key is primary).
    """
    if k <= 0 or not counts:
        return np.empty(0, dtype=np.int64)
    ids, vals = _as_arrays(counts)
    order = np.lexsort((ids, -vals))
    return ids[order[:k]]


def filter_hot_ids_reference(
    entity_counts: dict[int, int],
    relation_counts: dict[int, int],
    capacity: int,
    entity_ratio: float | None = 0.25,
) -> HotSet:
    """Algorithm 2 over count dicts (``filter_hot_ids`` before the table)."""
    check_positive("capacity", capacity)
    if entity_ratio is None:
        # Highest count first; deterministic tie-break on (kind, id) —
        # one lexsort over the merged (count, kind, id) columns.
        e_ids, e_vals = _as_arrays(entity_counts)
        r_ids, r_vals = _as_arrays(relation_counts)
        ids = np.concatenate([e_ids, r_ids])
        vals = np.concatenate([e_vals, r_vals])
        kinds = np.concatenate(
            [
                np.zeros(len(e_ids), dtype=np.int64),
                np.ones(len(r_ids), dtype=np.int64),
            ]
        )
        top = np.lexsort((ids, kinds, -vals))[:capacity]
        top_kinds = kinds[top]
        return HotSet(
            entities=ids[top[top_kinds == 0]],
            relations=ids[top[top_kinds == 1]],
        )

    entity_slots, relation_slots = split_slots(capacity, entity_ratio)
    entities = _top_ids(entity_counts, entity_slots)
    relations = _top_ids(relation_counts, relation_slots)

    # Reassign slots one side could not fill (small graphs may have fewer
    # distinct relations than reserved slots).
    spare = (entity_slots - len(entities)) + (relation_slots - len(relations))
    if spare > 0:
        if len(relations) < relation_slots:
            extra = _top_ids(entity_counts, entity_slots + spare)
            entities = extra
        elif len(entities) < entity_slots:
            extra = _top_ids(relation_counts, relation_slots + spare)
            relations = extra
    return HotSet(entities=entities, relations=relations)


# ----------------------------------------------------------------- ADAPTIVE


def _top_ids_float(counts: dict[int, float], k: int) -> np.ndarray:
    """Top-``k`` ids of a float-valued count dict, hottest first.

    :func:`_top_ids` coerces counts to int64, which
    would truncate the decayed (fractional) accumulators to meaningless
    ties — so ADAPTIVE ranks floats directly.  Ties break by id ascending,
    matching the integer filter's determinism contract.
    """
    if k <= 0 or not counts:
        return np.empty(0, dtype=np.int64)
    n = len(counts)
    ids = np.fromiter(counts.keys(), dtype=np.int64, count=n)
    vals = np.fromiter(counts.values(), dtype=np.float64, count=n)
    order = np.lexsort((ids, -vals))
    return ids[order[:k]]


def _decay_into(
    acc: dict[int, float], window: dict[int, int], decay: float
) -> None:
    """``acc = decay * acc + window`` in place."""
    if decay == 0.0:
        acc.clear()
    elif decay != 1.0:
        for key in acc:
            acc[key] *= decay
    for key, count in window.items():
        acc[key] = acc.get(key, 0.0) + count


class AdaptiveStaleReference(HotEmbeddingStrategy):
    """``AdaptiveStale`` as it stood with dict accumulators, verbatim.

    Only the window source differs: :func:`prefetch_reference` counts the
    window batch by batch into dicts, where ``src/`` now counts it into
    :class:`~repro.cache.hotness.HotnessTable`.
    """

    def __init__(
        self,
        capacity: int,
        window: int = 32,
        entity_ratio: float | None = 0.25,
        threshold: float = 0.65,
        decay: float = 0.5,
    ) -> None:
        super().__init__(capacity, entity_ratio)
        check_positive("window", window)
        check_fraction("decay", decay)
        self.window = max(1, window // 2)
        self.decay = decay
        self.detector = DriftDetector(threshold)
        self.rebuilds = 0
        self.windows_observed = 0
        self._sampler: EpochSampler | None = None
        self._queue: list[MiniBatch] = []
        self._next_hot: HotSet | None = None
        self._entity_acc: dict[int, float] = {}
        self._relation_acc: dict[int, float] = {}
        self._cached_entities = np.empty(0, dtype=np.int64)
        self._cached_relations = np.empty(0, dtype=np.int64)

    # -------------------------------------------------------------- internals

    @staticmethod
    def _coverage(
        result: PrefetchResultReference,
        entities: np.ndarray,
        relations: np.ndarray,
    ) -> float:
        """Fraction of the window's accesses a membership would serve."""
        total = result.total_entity_accesses + result.total_relation_accesses
        if total == 0:
            return 1.0
        served = 0
        for cached, counts in (
            (entities, result.entity_counts),
            (relations, result.relation_counts),
        ):
            if len(cached) == 0 or not counts:
                continue
            ids = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
            vals = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
            served += int(vals[np.isin(ids, cached)].sum())
        return served / total

    def _tuned_ratio(self) -> float | None:
        """Entity-slot fraction re-tuned toward the observed hot mix.

        Ranks the decayed entity and relation counts *jointly* and takes
        the entity share of the merged top-``capacity``; the new ratio is
        the midpoint between the current one and that share, clipped away
        from degenerate splits.
        """
        if self.entity_ratio is None:
            return None
        merged = _top_ids_float(
            {
                **{2 * k: v for k, v in self._relation_acc.items()},
                **{2 * k + 1: v for k, v in self._entity_acc.items()},
            },
            self.capacity,
        )
        if len(merged) == 0:
            return self.entity_ratio
        share = float((merged % 2 == 1).mean())
        tuned = 0.5 * self.entity_ratio + 0.5 * share
        return float(np.clip(tuned, 0.05, 0.75))

    def _build_hot(self, result: PrefetchResultReference) -> HotSet:
        """Filter the *current* window's counts under the tuned ratio.

        The window counts describe exactly the batches about to be
        trained on (Algorithm 1's ground truth), so they — not the
        decayed history — decide membership.  The history steers the
        entity/relation split via :meth:`_tuned_ratio` and *tops up*
        slots the window could not fill: a half-size window may name
        fewer distinct ids than the cache holds, and leaving those slots
        empty would waste capacity DPS's full window uses.
        """
        ratio = self._tuned_ratio()
        if ratio is not None:
            self.entity_ratio = ratio
        hot = filter_hot_ids_reference(
            result.entity_counts,
            result.relation_counts,
            self.capacity,
            self.entity_ratio,
        )
        spare = self.capacity - hot.size
        if spare <= 0:
            return hot
        chosen_ent = set(hot.entities.tolist())
        chosen_rel = set(hot.relations.tolist())
        leftover = {
            2 * k: v for k, v in self._relation_acc.items() if k not in chosen_rel
        }
        leftover.update(
            (2 * k + 1, v)
            for k, v in self._entity_acc.items()
            if k not in chosen_ent
        )
        extra = _top_ids_float(leftover, spare)
        if len(extra) == 0:
            return hot
        return HotSet(
            entities=np.concatenate([hot.entities, extra[extra % 2 == 1] // 2]),
            relations=np.concatenate([hot.relations, extra[extra % 2 == 0] // 2]),
        )

    def _refill(self, force_rebuild: bool) -> None:
        assert self._sampler is not None
        result = prefetch_reference(self._sampler, self.window)
        self._queue = list(result.batches)
        self._pending_overhead += (
            result.total_entity_accesses + result.total_relation_accesses
        )
        self.windows_observed += 1
        _decay_into(self._entity_acc, result.entity_counts, self.decay)
        _decay_into(self._relation_acc, result.relation_counts, self.decay)
        window_hot = self._build_hot(result)
        if force_rebuild:
            triggered = True
        else:
            signal = self.detector.observe(
                window_hot,
                self._cached_entities,
                self._cached_relations,
                self._coverage(
                    result, self._cached_entities, self._cached_relations
                ),
                candidate_coverage=self._coverage(
                    result,
                    np.asarray(window_hot.entities),
                    np.asarray(window_hot.relations),
                ),
            )
            triggered = signal.triggered
        if triggered:
            self.rebuilds += 1
            # Charge the new membership to the inherited capacity ledger:
            # the spare-slot top-up in _build_hot must never push the hot
            # set past capacity, and this is where that would surface.
            self._ledger.reinstall(window_hot.size)
            self._next_hot = window_hot
            self._cached_entities = np.sort(np.asarray(window_hot.entities))
            self._cached_relations = np.sort(np.asarray(window_hot.relations))
        else:
            self._next_hot = None

    # ------------------------------------------------------------- public API

    def setup(self, sampler: EpochSampler) -> HotSet:
        self._sampler = sampler
        self._refill(force_rebuild=True)
        hot = self._next_hot
        self._next_hot = None
        assert hot is not None
        return hot

    def next_batch(self) -> tuple[MiniBatch, HotSet | None]:
        if self._sampler is None:
            raise RuntimeError("setup() must be called before next_batch()")
        if not self._queue:
            self._refill(force_rebuild=False)
        hot = self._next_hot
        self._next_hot = None
        return self._queue.pop(0), hot

    def drop_ids(self, entities: np.ndarray, relations: np.ndarray) -> None:
        """Keep the membership record honest after external invalidation.

        The :class:`~repro.stream.ingest.OnlineTrainer` evicts cache rows
        touched by deletions; removing them from the strategy's view makes
        the next window's Jaccard/coverage reflect the true membership.
        """
        if len(entities):
            self._cached_entities = np.setdiff1d(
                self._cached_entities, np.asarray(entities, dtype=np.int64)
            )
        if len(relations):
            self._cached_relations = np.setdiff1d(
                self._cached_relations, np.asarray(relations, dtype=np.int64)
            )
