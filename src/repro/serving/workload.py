"""Synthetic inference workload generation.

Produces Zipfian query streams: entity/relation popularity follows a
power law, the defining property of real KG query traffic (and the same
skew the training-side Fig. 2 analysis measures).  The generator can be
*calibrated* from a knowledge graph so that the entities that were hot
during training — via :func:`repro.kg.stats.access_frequencies` — are
also the hot query anchors, which is what makes a log-profiled static
hot set transfer to the live stream.

Arrivals are a Poisson process (exponential inter-arrival times) at a
configurable rate, so the latency distribution under micro-batching is
non-trivial: bursts fill batches, lulls leave stragglers to the
``max_wait`` timeout.

Everything is deterministic under ``spec.seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.hotness import HotnessTable
from repro.kg.graph import KnowledgeGraph
from repro.kg.stats import access_frequencies
from repro.serving.queries import (
    HEAD_PREDICTION,
    SCORE,
    TAIL_PREDICTION,
    Query,
    QueryLog,
)
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs of one synthetic query stream.

    Parameters
    ----------
    num_queries:
        Stream length.
    arrival_rate:
        Mean arrival rate in queries per simulated second.
    zipf_exponent:
        Skew ``s`` of the popularity law ``p(rank) ~ 1 / rank^s``.
        ``~1.05-1.2`` matches measured KG/embedding traffic; ``0``
        degenerates to uniform (the cache-hostile control).
    mix:
        Probability of (score, tail-prediction, head-prediction) kinds.
    num_candidates:
        Candidate-set size for prediction queries.
    seed:
        Master seed; two generators with equal specs emit identical logs.
    """

    num_queries: int = 1000
    arrival_rate: float = 2000.0
    zipf_exponent: float = 1.1
    mix: tuple[float, float, float] = (0.5, 0.3, 0.2)
    num_candidates: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("num_queries", self.num_queries)
        check_positive("arrival_rate", self.arrival_rate)
        if self.zipf_exponent < 0:
            raise ValueError(
                f"zipf_exponent must be non-negative, got {self.zipf_exponent}"
            )
        if len(self.mix) != 3 or any(m < 0 for m in self.mix) or sum(self.mix) <= 0:
            raise ValueError(f"mix must be three non-negative weights, got {self.mix}")
        check_positive("num_candidates", self.num_candidates)


def zipf_probabilities(n: int, exponent: float) -> np.ndarray:
    """Normalised Zipf pmf over ranks ``0..n-1`` (rank 0 hottest)."""
    check_positive("n", n)
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), exponent)
    return weights / weights.sum()


class ZipfianWorkload:
    """Deterministic Zipfian query stream over one embedding geometry.

    Parameters
    ----------
    num_entities, num_relations:
        Id spaces the queries draw from.
    spec:
        The workload knobs.
    entity_order, relation_order:
        Rank -> id maps, hottest first.  Defaults to a seed-derived
        random permutation; :meth:`from_graph` calibrates them from the
        graph's training-time access frequencies instead.
    """

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        spec: WorkloadSpec | None = None,
        entity_order: np.ndarray | None = None,
        relation_order: np.ndarray | None = None,
    ) -> None:
        check_positive("num_entities", num_entities)
        check_positive("num_relations", num_relations)
        self.spec = spec if spec is not None else WorkloadSpec()
        order_rng = make_rng(self.spec.seed ^ 0x5EED)
        if entity_order is None:
            entity_order = order_rng.permutation(num_entities)
        if relation_order is None:
            relation_order = order_rng.permutation(num_relations)
        self.entity_order = np.asarray(entity_order, dtype=np.int64)
        self.relation_order = np.asarray(relation_order, dtype=np.int64)
        if len(self.entity_order) != num_entities:
            raise ValueError("entity_order must cover every entity id")
        if len(self.relation_order) != num_relations:
            raise ValueError("relation_order must cover every relation id")
        self.num_entities = num_entities
        self.num_relations = num_relations
        self._entity_p = zipf_probabilities(num_entities, self.spec.zipf_exponent)
        self._relation_p = zipf_probabilities(num_relations, self.spec.zipf_exponent)

    # ----------------------------------------------------------- construction

    @classmethod
    def from_graph(
        cls, graph: KnowledgeGraph, spec: WorkloadSpec | None = None
    ) -> "ZipfianWorkload":
        """Calibrate popularity order from the graph's access skew.

        The hottest training-time ids (by :func:`access_frequencies`)
        become the hottest query anchors — serving traffic concentrates
        on the same celebrities the training epochs did.
        """
        ent_counts, rel_counts = access_frequencies(graph)
        return cls(
            graph.num_entities,
            graph.num_relations,
            spec,
            entity_order=HotnessTable.dense(ent_counts).top(len(ent_counts)),
            relation_order=HotnessTable.dense(rel_counts).top(len(rel_counts)),
        )

    # ------------------------------------------------------------- generation

    def hot_entities(self, fraction: float) -> np.ndarray:
        """The hottest ``fraction`` of entity ids (for sizing hot sets)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        k = max(1, int(round(self.num_entities * fraction)))
        return self.entity_order[:k].copy()

    def _sample_entities(self, rng: np.random.Generator, size: int) -> np.ndarray:
        ranks = rng.choice(self.num_entities, size=size, p=self._entity_p)
        return self.entity_order[ranks]

    def _sample_relations(self, rng: np.random.Generator, size: int) -> np.ndarray:
        ranks = rng.choice(self.num_relations, size=size, p=self._relation_p)
        return self.relation_order[ranks]

    def generate(
        self, num_queries: int | None = None, start_time: float = 0.0
    ) -> QueryLog:
        """Emit a fresh deterministic stream of ``num_queries`` queries.

        Successive calls restart the stream (same seed, same queries) —
        generate once and slice for warmup/measure splits.
        """
        spec = self.spec
        n = spec.num_queries if num_queries is None else num_queries
        check_positive("num_queries", n)
        rng = make_rng(spec.seed)
        mix = np.asarray(spec.mix, dtype=np.float64)
        mix = mix / mix.sum()
        kinds = rng.choice(3, size=n, p=mix)
        arrivals = start_time + np.cumsum(
            rng.exponential(1.0 / spec.arrival_rate, size=n)
        )
        heads = self._sample_entities(rng, n)
        tails = self._sample_entities(rng, n)
        relations = self._sample_relations(rng, n)
        candidates = self._sample_entities(rng, n * spec.num_candidates).reshape(
            n, spec.num_candidates
        )

        queries = []
        kind_names = (SCORE, TAIL_PREDICTION, HEAD_PREDICTION)
        for i in range(n):
            kind = kind_names[kinds[i]]
            cand = () if kind == SCORE else tuple(candidates[i].tolist())
            queries.append(
                Query(
                    qid=i,
                    kind=kind,
                    head=int(heads[i]),
                    relation=int(relations[i]),
                    tail=int(tails[i]),
                    arrival=float(arrivals[i]),
                    candidates=cand,
                )
            )
        return QueryLog(queries)
