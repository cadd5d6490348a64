"""Hotness-drift detection and the drift-adaptive cache strategy.

The paper's DPS rebuilds the hot set every ``D`` iterations whether the
workload moved or not; CPS never rebuilds at all.  ADAPTIVE sits between
the two: it *watches* each prefetch window and rebuilds only when the hot
set actually drifted, judged by

* the **Jaccard overlap** between the window's top-k ids and the cache's
  current membership falling below a threshold, or
* an **EWMA of the coverage proxy** (fraction of window accesses the
  current membership would serve) dropping below the same threshold.

Between triggers it keeps the current membership (CPS-cheap); on a
trigger it rebuilds from the *current* window's exact access counts — the
prefetched batches it is about to train on, the same ground truth DPS
uses, but observed at half DPS's granularity, so the membership is
fresher when drift is fast.  A decayed exponential average of all windows
seen so far feeds the drift decision and re-tunes the entity/relation
slot split toward the observed access mix (history is deliberately kept
*out* of the membership itself: the upcoming window's counts are not an
estimate but the truth, and mixing stale windows in can only dilute it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.filtering import HotSet, filter_hot_ids
from repro.cache.hotness import HotnessTable, top_merged
from repro.cache.prefetch import PrefetchResult, prefetch
from repro.cache.strategies import HotEmbeddingStrategy
from repro.utils.validation import check_fraction, check_positive


def _jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard overlap of two id arrays (1.0 when both are empty)."""
    if len(a) == 0 and len(b) == 0:
        return 1.0
    inter = len(np.intersect1d(a, b, assume_unique=False))
    union = len(np.union1d(a, b))
    return inter / union if union else 1.0


@dataclass
class DriftSignal:
    """One window's drift measurement (telemetry / experiment reporting)."""

    jaccard: float
    coverage: float
    coverage_ewma: float
    candidate_coverage: float
    triggered: bool


class DriftDetector:
    """Windowed hotness-drift detector.

    Parameters
    ----------
    threshold:
        Trigger when the Jaccard overlap *or* the coverage EWMA falls
        below this value.  These absolute tests catch *fast* drift.
    gain_margin:
        Trigger when the window's own hot set would serve this much more
        of the window's accesses than the current membership does
        (``candidate_coverage - coverage > gain_margin``).  This relative
        test catches *slow* drift in the ample-capacity regime, where
        coverage never falls below the absolute threshold yet a rebuild
        would still measurably raise the hit ratio.
    ewma_alpha:
        Smoothing of the coverage EWMA (higher = more reactive).
    """

    def __init__(
        self,
        threshold: float = 0.65,
        gain_margin: float = 0.02,
        ewma_alpha: float = 0.5,
    ) -> None:
        check_fraction("threshold", threshold)
        check_fraction("gain_margin", gain_margin)
        check_fraction("ewma_alpha", ewma_alpha)
        self.threshold = threshold
        self.gain_margin = gain_margin
        self.ewma_alpha = ewma_alpha
        self.coverage_ewma = 1.0
        self.signals: list[DriftSignal] = []

    def observe(
        self,
        window_hot: HotSet,
        cached_entities: np.ndarray,
        cached_relations: np.ndarray,
        coverage: float,
        candidate_coverage: float = 0.0,
    ) -> DriftSignal:
        """Measure one window against the current cache membership."""
        j_ent = _jaccard(np.asarray(window_hot.entities), cached_entities)
        j_rel = _jaccard(np.asarray(window_hot.relations), cached_relations)
        n_ent = len(window_hot.entities) + len(cached_entities)
        n_rel = len(window_hot.relations) + len(cached_relations)
        total = n_ent + n_rel
        jaccard = (
            (j_ent * n_ent + j_rel * n_rel) / total if total else 1.0
        )
        self.coverage_ewma = (
            (1.0 - self.ewma_alpha) * self.coverage_ewma
            + self.ewma_alpha * coverage
        )
        triggered = (
            jaccard < self.threshold
            or self.coverage_ewma < self.threshold
            or candidate_coverage - coverage > self.gain_margin
        )
        signal = DriftSignal(
            jaccard=jaccard,
            coverage=coverage,
            coverage_ewma=self.coverage_ewma,
            candidate_coverage=candidate_coverage,
            triggered=triggered,
        )
        self.signals.append(signal)
        return signal


class AdaptiveStale(HotEmbeddingStrategy):
    """ADAPTIVE: drift-triggered DPS with decayed hotness accumulation.

    Parameters
    ----------
    capacity, entity_ratio:
        As in the other strategies; ``entity_ratio`` here is only the
        *initial* split — every observed window re-tunes it toward the
        observed access mix, whether or not that window triggers a rebuild
        (unless it is ``None``, the heterogeneity-ignorant ablation).
    window:
        Budget window ``D`` in iterations (same knob as DPS).  ADAPTIVE
        *observes* at half that granularity — finer-grained drift
        measurements and faster reaction when a trigger fires — but
        rebuilds only on triggers, so under a stationary workload it does
        strictly less install work than DPS while reacting in at most
        ``D/2`` iterations when the workload moves.
    threshold:
        Drift-trigger threshold (see :class:`DriftDetector`).
    decay:
        Per-window decay of the accumulated hotness counts
        (0 = only the latest window, i.e. DPS-grade estimates;
        1 = never forget, i.e. CPS-grade estimates).
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
        self._entity_acc = HotnessTable.empty()
        self._relation_acc = HotnessTable.empty()
        self._cached_entities = np.empty(0, dtype=np.int64)
        self._cached_relations = np.empty(0, dtype=np.int64)

    # -------------------------------------------------------------- internals

    @staticmethod
    def _coverage(
        result: PrefetchResult,
        entities: np.ndarray,
        relations: np.ndarray,
    ) -> float:
        """Fraction of the window's accesses a membership would serve."""
        total = result.total_entity_accesses + result.total_relation_accesses
        if total == 0:
            return 1.0
        served = (
            result.entity_counts.mass(entities)
            + result.relation_counts.mass(relations)
        )
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
        entities, relations = top_merged(
            self._entity_acc, self._relation_acc, self.capacity, id_major=True
        )
        picked = len(entities) + len(relations)
        if picked == 0:
            return self.entity_ratio
        share = len(entities) / picked
        tuned = 0.5 * self.entity_ratio + 0.5 * share
        return float(np.clip(tuned, 0.05, 0.75))

    def _build_hot(self, result: PrefetchResult) -> HotSet:
        """Filter the *current* window's counts under the tuned ratio.

        The window counts describe exactly the batches about to be
        trained on (Algorithm 1's ground truth), so they — not the
        decayed history — decide membership.  The history steers the
        entity/relation split via :meth:`_tuned_ratio` and *tops up*
        slots the window could not fill: a half-size window may name
        fewer distinct ids than the cache holds, and leaving those slots
        empty would waste capacity DPS's full window uses.

        Runs for every observed window (the detector needs the candidate
        to decide), so ``entity_ratio`` is re-tuned on each one, trigger
        or not.
        """
        ratio = self._tuned_ratio()
        if ratio is not None:
            self.entity_ratio = ratio
        hot = filter_hot_ids(
            result.entity_counts,
            result.relation_counts,
            self.capacity,
            self.entity_ratio,
        )
        spare = self.capacity - hot.size
        if spare <= 0:
            return hot
        extra_entities, extra_relations = top_merged(
            self._entity_acc.without(hot.entities),
            self._relation_acc.without(hot.relations),
            spare,
            id_major=True,
        )
        return HotSet(
            entities=np.concatenate([hot.entities, extra_entities]),
            relations=np.concatenate([hot.relations, extra_relations]),
        )

    def _refill(self, first: bool) -> HotSet | None:
        result = prefetch(self._sampler, self.window)
        self._queue = list(result.batches)
        self._pending_overhead += (
            result.total_entity_accesses + result.total_relation_accesses
        )
        self.windows_observed += 1
        self._entity_acc = self._entity_acc.decayed_add(
            result.entity_counts, self.decay
        )
        self._relation_acc = self._relation_acc.decayed_add(
            result.relation_counts, self.decay
        )
        window_hot = self._build_hot(result)
        if not first:
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
            if not signal.triggered:
                return None
        self.rebuilds += 1
        # Charge the new membership to the inherited capacity ledger: the
        # spare-slot top-up in _build_hot must never push the hot set past
        # capacity, and this is where that would surface.
        self._ledger.reinstall(window_hot.size)
        self._cached_entities = np.sort(np.asarray(window_hot.entities))
        self._cached_relations = np.sort(np.asarray(window_hot.relations))
        return window_hot

    # ------------------------------------------------------------- public API

    def drop_ids(self, entities: np.ndarray, relations: np.ndarray) -> None:
        """Keep the membership record honest after external invalidation.

        The :class:`~repro.stream.ingest.OnlineTrainer` evicts cache rows
        touched by deletions; removing them from the strategy's view makes
        the next window's Jaccard/coverage reflect the true membership.
        """
        # Both records are sorted and unique (``np.sort`` of a hot set), so
        # masking is ``np.setdiff1d`` without its two ``np.unique`` sorts.
        if len(entities):
            self._cached_entities = self._cached_entities[
                ~np.isin(self._cached_entities, entities)
            ]
        if len(relations):
            self._cached_relations = self._cached_relations[
                ~np.isin(self._cached_relations, relations)
            ]
