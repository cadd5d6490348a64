"""Query model for the serving subsystem.

A serving deployment answers three kinds of link-prediction requests over
a trained KGE model (the inference-side mirror of the paper's training
workload):

* ``score``  — "how plausible is triple (h, r, t)?"  Touches two entity
  rows and one relation row.
* ``tail``   — "given (h, r, ?), rank candidate tails."  Touches the head
  row, the relation row, and every candidate entity row.
* ``head``   — "given (?, r, t), rank candidate heads."  Symmetric.

Queries are plain frozen records stamped with a simulated arrival time;
the :mod:`repro.serving.workload` generator produces streams of them and
:mod:`repro.serving.frontend` replays the stream against the store.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cache.hotness import HotnessTable

#: Recognised query kinds.
SCORE, TAIL_PREDICTION, HEAD_PREDICTION = "score", "tail", "head"

QUERY_KINDS = (SCORE, TAIL_PREDICTION, HEAD_PREDICTION)

#: Recognised query outcomes (see :mod:`repro.serving.admission`):
#: ``admitted`` — served in full (or degraded; see ``QueryResult.degraded``),
#: ``rejected`` — refused up front by a tenant's token bucket,
#: ``shed``     — dropped by the load shedder to protect the SLO,
#: ``timeout``  — admitted but the shard pull burned its retry budget.
ADMITTED, REJECTED, SHED, TIMEOUT = "admitted", "rejected", "shed", "timeout"

OUTCOMES = (ADMITTED, REJECTED, SHED, TIMEOUT)


def _check_id(name: str, value, optional: bool = False) -> None:
    """A row id is a non-negative Python or NumPy int, never a bool: a
    negative id would silently index from the end of the table."""
    if value is None and optional:
        return
    if type(value) is bool or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"query {name} must be a non-negative integer id, got {value!r}")


@dataclass(frozen=True)
class Query:
    """One inference request.

    ``candidates`` is the entity candidate set a prediction query ranks
    against (empty for ``score`` queries).  Real deployments either rank
    against a curated candidate list (recommendation retrieval) or a
    sampled one; carrying the set on the query keeps the frontend
    deterministic and lets the workload generator control its skew.

    ``head``, ``relation``, ``tail`` and every candidate are non-negative
    integer ids (``ValueError`` otherwise); the side a prediction query
    leaves open (``tail`` of a ``tail`` query, ``head`` of a ``head``
    query) may be ``None``.
    """

    qid: int
    kind: str
    head: int | None
    relation: int
    tail: int | None
    arrival: float
    candidates: tuple[int, ...] = ()
    #: Multi-tenant serving: which tenant issued the query.  The empty
    #: string is the anonymous single-tenant default and is exempt from
    #: admission control unless the controller defines a ``*`` bucket.
    tenant: str = ""

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ValueError(
                f"unknown query kind {self.kind!r}; expected one of {QUERY_KINDS}"
            )
        if self.arrival < 0:
            raise ValueError(f"arrival must be non-negative, got {self.arrival}")
        # A prediction leaves one side open; only that side may be None.
        _check_id("relation", self.relation)
        _check_id("head", self.head, optional=self.kind == HEAD_PREDICTION)
        _check_id("tail", self.tail, optional=self.kind == TAIL_PREDICTION)
        if not all(type(c) is int and c >= 0 for c in self.candidates):
            for c in self.candidates:
                _check_id("candidates", c)

    # ------------------------------------------------------------- accesses

    def anchors(self) -> tuple[int, ...]:
        """The given (non-candidate) entity rows this query touches."""
        if self.kind == SCORE:
            return (self.head, self.tail)
        if self.kind == TAIL_PREDICTION:
            return (self.head,)
        return (self.tail,)

    def entity_ids(self) -> np.ndarray:
        """Entity rows this query touches (duplicates preserved)."""
        return np.asarray(
            [*self.anchors(), *self.candidates], dtype=np.int64
        )

    def relation_ids(self) -> np.ndarray:
        """Relation rows this query touches."""
        return np.asarray([self.relation], dtype=np.int64)

    @property
    def num_scores(self) -> int:
        """Scoring work (triples scored) this query induces."""
        return 1 if self.kind == SCORE else max(1, len(self.candidates))


@dataclass
class QueryResult:
    """Completion record for one served query.

    Every offered query produces exactly one record, whatever its fate:
    rejected and shed queries complete instantly at the decision point
    with ``answer=None``; timed-out queries complete when their batch's
    retry budget exhausted.  Only ``outcome == ADMITTED`` records carry a
    real answer and count toward the latency percentiles.
    """

    qid: int
    kind: str
    arrival: float
    completion: float
    batch_size: int
    #: ``score`` queries: the scalar score.  Prediction queries: top-k
    #: candidate entity ids, best first.  ``None`` for queries that were
    #: rejected, shed, or timed out.
    answer: float | np.ndarray | None = 0.0
    #: One of :data:`OUTCOMES`.
    outcome: str = ADMITTED
    #: Issuing tenant ("" = anonymous single-tenant traffic).
    tenant: str = ""
    #: True when the shed ladder served a truncated top-k instead of the
    #: full candidate set (outcome stays ``admitted``).
    degraded: bool = False

    @property
    def latency(self) -> float:
        return self.completion - self.arrival


@dataclass
class QueryLog:
    """An ordered stream of queries plus the access counts it induces.

    The counts feed :func:`repro.cache.filtering.filter_hot_ids` to build
    a CPS-style static hot set for the serving cache, exactly how the
    training side builds its cache from a prefetch window (Alg. 1-2).
    """

    queries: list[Query] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def access_counts(self) -> tuple[HotnessTable, HotnessTable]:
        """``(entity_counts, relation_counts)`` over the whole log."""
        return (
            HotnessTable.count([q.entity_ids() for q in self.queries]),
            HotnessTable.count([q.relation_ids() for q in self.queries]),
        )
