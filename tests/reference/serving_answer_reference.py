"""Reference oracle: the serving frontend's per-query answer path.

This is ``repro.serving`` as it stood before a dispatch answered its
micro-batch with one entity read, one relation read and one
``model.score``: the frontend's ``_process``, ``_complete`` and
``_answer``, and the store's ``score_triples`` and ``rank_candidates``,
each query scored and ranked on its own.  Kept verbatim, this docstring
and the two class headers aside.  ``tests/test_serving_batch_equivalence.py``
holds the live frontend to it: the ``QueryResult`` stream, answers by
bytes.  Not imported by ``src/``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ps.network import CommRecord
from repro.serving.frontend import ServingFrontend
from repro.serving.queries import (
    ADMITTED,
    REJECTED,
    SCORE,
    SHED,
    TIMEOUT,
    Query,
    QueryResult,
)
from repro.serving.store import EmbeddingStore


class PerQueryStore(EmbeddingStore):
    """An :class:`EmbeddingStore` that scores and ranks one query at a time."""

    def score_triples(
        self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray
    ) -> np.ndarray:
        """Plausibility score per ``(h, r, t)`` row of the batch."""
        h = self.store.table("entity")[np.asarray(heads, dtype=np.int64)]
        r = self.store.table("relation")[np.asarray(relations, dtype=np.int64)]
        t = self.store.table("entity")[np.asarray(tails, dtype=np.int64)]
        return self.model.score(
            np.ascontiguousarray(h),
            np.ascontiguousarray(r),
            np.ascontiguousarray(t),
        )

    def rank_candidates(
        self,
        head: int | None,
        relation: int,
        tail: int | None,
        candidates: np.ndarray,
        k: int = 10,
    ) -> np.ndarray:
        """Top-``k`` candidate entity ids, best first.

        Exactly one of ``head``/``tail`` must be ``None`` — that side is
        filled from ``candidates``.
        """
        if (head is None) == (tail is None):
            raise ValueError("exactly one of head/tail must be None")
        candidates = np.asarray(candidates, dtype=np.int64)
        n = len(candidates)
        if n == 0:
            return candidates
        ent = self.store.table("entity")
        rel = self.store.table("relation")
        cand_rows = ent[candidates]
        r_rows = np.broadcast_to(rel[relation], (n, rel.shape[1]))
        if head is None:
            h_rows, t_rows = cand_rows, np.broadcast_to(ent[tail], (n, ent.shape[1]))
        else:
            h_rows, t_rows = np.broadcast_to(ent[head], (n, ent.shape[1])), cand_rows
        scores = self.model.score(
            np.ascontiguousarray(h_rows),
            np.ascontiguousarray(r_rows),
            np.ascontiguousarray(t_rows),
        )
        # Descending score; ties broken by candidate id for determinism.
        order = np.lexsort((candidates, -scores))
        return candidates[order[: min(k, n)]]


class PerQueryFrontend(ServingFrontend):
    """A :class:`ServingFrontend` that answers each query on its own.

    Build it over a :class:`PerQueryStore` so ``_answer`` reaches the
    per-query ``score_triples`` and ``rank_candidates``.
    """

    def _process(
        self, batch: Sequence[Query], trigger: float, reason: str = "full"
    ) -> None:
        """Dispatch one micro-batch triggered at simulated time ``trigger``."""
        if trigger > self.clock.elapsed:
            # Server idle until the batch was triggered.
            with self.trace.span("serve.idle", "idle"):
                self.clock.advance(trigger - self.clock.elapsed, "idle")
        self._batches_dispatched += 1
        service_start = self.clock.elapsed

        pulled_ok = True
        with self.trace.span("serve.fetch", "communication") as span:
            # The batch's distinct rows, ascending (the order a reactive
            # cache sees them in decides what it evicts).
            entities: set[int] = set()
            for query in batch:
                entities.update(query.anchors(), query.candidates)
            entity_ids = np.array(sorted(entities), dtype=np.int64)
            relation_ids = np.array(
                sorted({q.relation for q in batch}), dtype=np.int64
            )
            comm = CommRecord()
            misses = 0
            self.channel.iteration = self._batches_dispatched
            for kind, ids in (("entity", entity_ids), ("relation", relation_ids)):
                if self.cache is not None:
                    hit_mask = self.cache.lookup(kind, ids)
                    miss_ids = ids[~hit_mask]
                else:
                    miss_ids = ids
                if len(miss_ids):
                    pulled, ok = self.channel.pull(kind, miss_ids)
                    comm.merge(pulled)
                    if not ok:
                        pulled_ok = False
                        break
                misses += len(miss_ids)
            self.comm_totals.merge(comm)
            if pulled_ok:
                self.clock.advance(self.network.cost(comm), "communication")
            span.set(
                batch=len(batch), misses=misses, bytes=comm.total_bytes, reason=reason
            )

        if pulled_ok:
            with self.trace.span("serve.compute", "compute") as span:
                num_scores = sum(q.num_scores for q in batch)
                compute_time = self.compute.batch_time(
                    num_scores, self.store.model.dim, backward=False
                )
                if self.injector is not None:
                    compute_time *= self.injector.straggler_factor(
                        self.machine, self._batches_dispatched
                    )
                self.clock.advance(compute_time, "compute")
                span.set(batch=len(batch), scores=num_scores)
        self.trace.count("serve.batches")
        self.trace.count(f"serve.flush.{reason}")
        # A retry budget exhausted mid-pull times the whole batch out at
        # the post-retry clock: no scores, no compute time, no answer.
        self.trace.count("serve.queries" if pulled_ok else "serve.timeouts", len(batch))
        self._complete(batch, self.clock.elapsed, ADMITTED if pulled_ok else TIMEOUT)
        if self.shedder is not None:
            self.shedder.observe_batch(
                len(batch), self.clock.elapsed - service_start
            )

    def _complete(
        self, queries: Sequence[Query], completion: float, outcome: str = ADMITTED
    ) -> None:
        """Record one completion per query at simulated time ``completion``.

        Only admitted queries are answered.  Rejected and shed queries
        never reached a batch, so they complete with batch size 0.
        """
        answered = outcome == ADMITTED
        batch_size = 0 if outcome in (REJECTED, SHED) else len(queries)
        for query in queries:
            degraded = query.qid in self._degraded_qids
            if degraded:
                self._degraded_qids.discard(query.qid)
            self.results.append(
                QueryResult(
                    qid=query.qid,
                    kind=query.kind,
                    arrival=query.arrival,
                    completion=completion,
                    batch_size=batch_size,
                    answer=self._answer(query) if answered else None,
                    outcome=outcome,
                    tenant=query.tenant,
                    degraded=degraded and answered,
                )
            )

    def _answer(self, query: Query) -> float | np.ndarray:
        """Compute the query's actual answer (exact numerics)."""
        if query.kind == SCORE:
            return float(
                self.store.score_triples(
                    np.asarray([query.head]),
                    np.asarray([query.relation]),
                    np.asarray([query.tail]),
                )[0]
            )
        candidates = np.asarray(query.candidates, dtype=np.int64)
        if query.kind == "tail":
            return self.store.rank_candidates(
                query.head, query.relation, None, candidates, k=self.top_k
            )
        return self.store.rank_candidates(
            None, query.relation, query.tail, candidates, k=self.top_k
        )
