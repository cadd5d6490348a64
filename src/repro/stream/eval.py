"""Prequential (test-then-train) link-prediction over a sliding holdout.

Static evaluation scores a model on a frozen test split — meaningless for a
stream whose distribution drifts away from any fixed split.  Prequential
evaluation scores each incoming batch of triples *before* the model trains
on them (so every measurement is honestly out-of-sample), then folds them
into a sliding holdout window; periodic evaluations rank the window
against the current global tables.  MRR is therefore always measured on
the distribution the stream is *currently* serving.

Caveats (also in ``docs/streaming.md``): prequential MRR is not comparable
to static test MRR — the holdout is small, recent, and was never held out
of training for long; treat it as a trend signal, not an absolute score.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.evaluation import evaluate_link_prediction
from repro.kg.graph import KnowledgeGraph
from repro.models.base import KGEModel
from repro.utils.validation import check_positive


@dataclass
class PrequentialPoint:
    """One evaluation of the sliding holdout."""

    step: int
    mrr: float
    hits10: float
    window_size: int


@dataclass
class PrequentialResult:
    """The full prequential trajectory of one online run."""

    points: list[PrequentialPoint] = field(default_factory=list)

    @property
    def final_mrr(self) -> float:
        return self.points[-1].mrr if self.points else 0.0



class PrequentialEvaluator:
    """Sliding-holdout prequential evaluator.

    Parameters
    ----------
    model:
        The trainer's score function.
    window:
        Holdout size in triples (oldest are evicted first).
    num_candidates / max_queries:
        Sampled-ranking budget per evaluation (kept small — this runs
        many times along a stream).
    seed:
        Evaluation RNG seed.  The evaluator draws from its *own* RNG, so
        evaluating never perturbs training randomness (the same contract
        static evaluation honours).
    """

    def __init__(
        self,
        model: KGEModel,
        window: int = 256,
        num_candidates: int | None = 100,
        max_queries: int = 50,
        seed: int = 0,
    ) -> None:
        check_positive("window", window)
        check_positive("max_queries", max_queries)
        if num_candidates is not None:
            check_positive("num_candidates", num_candidates)
        self.model = model
        self.window = window
        self.num_candidates = num_candidates
        self.max_queries = max_queries
        self.seed = seed
        self._holdout: deque[tuple[int, int, int]] = deque(maxlen=window)
        self._evals = 0
        self.result = PrequentialResult()

    # ----------------------------------------------------------------- intake

    def observe(self, triples: np.ndarray) -> None:
        """Fold incoming stream triples into the sliding holdout.

        Call this *before* training on them (test-then-train): the next
        :meth:`evaluate` then scores triples the model has seen for at
        most one window's worth of updates.
        """
        for h, r, t in np.asarray(triples, dtype=np.int64).reshape(-1, 3):
            self._holdout.append((int(h), int(r), int(t)))

    @property
    def holdout_size(self) -> int:
        return len(self._holdout)

    # ------------------------------------------------------------------ score

    def evaluate(
        self,
        step: int,
        entity_table: np.ndarray,
        relation_table: np.ndarray,
        num_relations: int,
    ) -> PrequentialPoint | None:
        """Rank the current holdout against the given global tables."""
        if not self._holdout:
            return None
        triples = np.asarray(list(self._holdout), dtype=np.int64)
        graph = KnowledgeGraph(
            triples,
            num_entities=len(entity_table),
            num_relations=num_relations,
        )
        self._evals += 1
        res = evaluate_link_prediction(
            self.model,
            entity_table,
            relation_table,
            graph,
            max_queries=self.max_queries,
            num_candidates=self.num_candidates,
            seed=self.seed + self._evals,
        )
        point = PrequentialPoint(
            step=step,
            mrr=res.mrr,
            hits10=res.hits.get(10, 0.0),
            window_size=len(triples),
        )
        self.result.points.append(point)
        return point
