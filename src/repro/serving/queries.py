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

from collections.abc import Sequence
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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


#: The candidates of a query that has none (every ``score`` query).
NO_CANDIDATES = _read_only(np.empty(0, dtype=np.int64))


def _candidate_array(candidates) -> np.ndarray:
    """``candidates`` as a read-only 1-D int64 array, checked before it is
    converted: a cast would turn ``2.9`` into entity 2 and ``True`` into
    entity 1.  A read-only 1-D int64 array comes back as given."""
    if not len(candidates):
        return NO_CANDIDATES
    if not isinstance(candidates, np.ndarray):
        if not all(type(c) is int and c >= 0 for c in candidates):
            for c in candidates:
                _check_id("candidates", c)
        return _read_only(np.array(candidates, dtype=np.int64))
    if candidates.ndim != 1:
        raise ValueError(
            f"query candidates must be a 1-D sequence of ids, got shape {candidates.shape}"
        )
    # One reduction finds the id a cast would corrupt: the smallest signed
    # one, the largest unsigned one.  Any other dtype (bool, float) holds
    # no ids at all.
    kind = candidates.dtype.kind
    if kind not in "iu":
        worst = candidates[0]
    else:
        worst = candidates.min() if kind == "i" else candidates.max()
    if kind not in "iu" or not 0 <= worst <= np.iinfo(np.int64).max:
        raise ValueError(
            f"query candidates must be a non-negative integer id, got {worst!r}"
        )
    if candidates.dtype == np.int64 and not candidates.flags.writeable:
        return candidates
    return _read_only(candidates.astype(np.int64))


@dataclass(frozen=True, slots=True, eq=False)
class Query:
    """One inference request.

    ``candidates`` is the entity candidate set a prediction query ranks
    against (empty for ``score`` queries).  Real deployments either rank
    against a curated candidate list (recommendation retrieval) or a
    sampled one; carrying the set on the query keeps the frontend
    deterministic and lets the workload generator control its skew.

    The constructor takes any sequence of integer ids and stores a
    read-only 1-D int64 array: a read-only int64 array is kept as given
    (a generated log's candidates are row views of one array), anything
    else is copied once.  Queries with equal fields compare equal,
    candidates compared by value.

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
    candidates: Sequence[int] | np.ndarray = ()
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
        object.__setattr__(self, "candidates", _candidate_array(self.candidates))

    def _key(self) -> tuple:
        return (
            self.qid, self.kind, self.head, self.relation, self.tail,
            self.arrival, self.tenant,
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key() and np.array_equal(
            self.candidates, other.candidates
        )

    def __hash__(self) -> int:
        return hash((*self._key(), self.candidates.tobytes()))

    def __reduce__(self):
        # Rebuilt through the constructor: an unpickled array is writeable.
        return (
            Query,
            (
                self.qid, self.kind, self.head, self.relation, self.tail,
                self.arrival, self.candidates, self.tenant,
            ),
        )

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
        return np.concatenate(
            (np.array(self.anchors(), dtype=np.int64), self.candidates)
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
