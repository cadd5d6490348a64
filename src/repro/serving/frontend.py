"""The serving frontend: replay a query stream against the store.

One frontend models one inference server co-located with shard
``machine`` of the embedding store.  For every dispatched micro-batch it

1. gathers the **unique** entity/relation rows the batch touches,
2. looks them up in the :class:`~repro.serving.cache.ServingCache`
   (when configured) — hits cost nothing, misses are pulled from their
   owning shard through the same :class:`~repro.ps.network.NetworkModel`
   cost model training uses,
3. scores the batch with one entity read, one relation read and one
   ``model.score`` (:meth:`~repro.serving.store.EmbeddingStore.answer`;
   real numerics — answers are exact, only *time* is simulated) and
   charges :class:`~repro.ps.network.ComputeModel` time,
4. stamps each query's completion with the frontend's
   :class:`~repro.utils.simclock.SimClock`.

The event loop is deterministic: queries are consumed in arrival order,
flush-on-timeout events fire at exact batcher deadlines, and a busy
server naturally queues work (a batch triggered at time *t* starts at
``max(clock, t)``; the gap is accounted as queueing inside each query's
latency).

Overload robustness (all opt-in; the plain path is bit-identical with
every knob off):

* ``admission`` — an :class:`~repro.serving.admission.AdmissionController`
  gates each arrival through its tenant's token bucket *before* the
  batcher; refused queries complete instantly with the first-class
  ``rejected`` outcome.
* ``shedder`` — a :class:`~repro.serving.admission.LoadShedder` projects
  each admitted arrival's completion from the backlog and sheds or
  degrades (truncated top-k) along its ladder; shed queries complete
  instantly with the ``shed`` outcome.
* ``faults`` — a :class:`~repro.faults.plan.FaultPlan` makes the
  frontend's :class:`~repro.serving.channel.ShardChannel`, which every
  cache-miss pull goes through, retry; retry waits land on the serving
  clock, and a batch whose retry budget burns out completes with the
  ``timeout`` outcome instead of raising.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np

from repro.faults.injector import FaultInjector
from repro.obs.tracer import Tracer, get_tracer
from repro.ps.network import (
    BYTES_PER_ELEMENT,
    CommRecord,
    ComputeModel,
    NetworkModel,
    meter_rows,
)
from repro.serving.admission import (
    DEGRADED,
    SHED_DECISION,
    AdmissionController,
    LoadShedder,
)
from repro.serving.batcher import QueryBatcher
from repro.serving.cache import ServingCache
from repro.serving.channel import ShardChannel
from repro.serving.metrics import ServingReport, aggregate_results
from repro.serving.queries import (
    ADMITTED,
    REJECTED,
    SHED,
    TIMEOUT,
    Query,
    QueryResult,
)
from repro.serving.store import EmbeddingStore, check_top_k
from repro.utils.simclock import SimClock


class ServingFrontend:
    """Single-node inference server over a sharded embedding store.

    Parameters
    ----------
    store:
        The trained embeddings + model (an
        :class:`~repro.serving.store.EmbeddingStore` or a
        :class:`~repro.serving.deploy.VersionedStore`).
    batcher:
        Micro-batching policy (default: batches of 32, 2 ms max wait).
    cache:
        Optional hot-row cache; ``None`` means every row is pulled from
        its owning shard on every batch (the cache-off baseline).
    network / compute:
        Cost models; defaults match the training testbed
        (:class:`NetworkModel`, :class:`ComputeModel` defaults).
    machine:
        Which shard the frontend is co-located with; rows owned by other
        shards cost remote traffic.
    top_k:
        Answer size for prediction queries (at least 1).
    byte_scale:
        Multiplier on metered bytes, mirroring the trainer's
        ``TrainingConfig.byte_scale`` wire-dimension correction.
    tracer:
        Observability tracer (:mod:`repro.obs`); defaults to the
        process-wide tracer installed by ``--trace`` (zero-cost when
        none is installed).
    admission / shedder / faults:
        The overload layer (see the module docstring); all default off.
    """

    def __init__(
        self,
        store: EmbeddingStore,
        batcher: QueryBatcher | None = None,
        cache: ServingCache | None = None,
        network: NetworkModel | None = None,
        compute: ComputeModel | None = None,
        machine: int = 0,
        top_k: int = 10,
        byte_scale: float = 1.0,
        tracer: Tracer | None = None,
        admission: AdmissionController | None = None,
        shedder: LoadShedder | None = None,
        faults=None,
    ) -> None:
        if byte_scale <= 0:
            raise ValueError(f"byte_scale must be positive, got {byte_scale}")
        check_top_k(top_k)
        if not 0 <= machine < store.store.num_machines:
            raise ValueError(
                f"machine {machine} out of range for "
                f"{store.store.num_machines} shards"
            )
        self.store = store
        self.batcher = batcher if batcher is not None else QueryBatcher()
        self.cache = cache
        self.network = network if network is not None else NetworkModel()
        self.compute = compute if compute is not None else ComputeModel()
        self.machine = machine
        self.top_k = top_k
        self.byte_scale = byte_scale
        self.clock = SimClock()
        self.results: list[QueryResult] = []
        self.comm_totals = CommRecord()
        active = tracer if tracer is not None else get_tracer()
        self.trace = active.scope(f"serving@{machine}", self.clock)
        self.admission = admission
        self.shedder = shedder
        self.injector = None
        if faults is not None:
            faults.check_cluster(store.store.num_machines)
            self.injector = FaultInjector(faults)
        self.channel = ShardChannel(
            store, machine, self.clock, self._meter, self.injector, self.trace
        )
        self._batches_dispatched = 0
        self._degraded_qids: set[int] = set()

    # ------------------------------------------------------------- warm start

    def warm_from(self, cache) -> None:
        """Adopt a trainer's hot-embedding membership as the serving cache.

        The streaming handoff: an :class:`~repro.stream.ingest.OnlineTrainer`
        that tracked a drifting workload leaves its workers' hot tables
        holding exactly the currently-hot ids — warming from that
        membership means the serving tier starts warm on the distribution
        the stream was last serving, instead of re-profiling from scratch.

        When a serving cache is already configured, its **shape is
        preserved**: :meth:`ServingCache.rewarmed` re-pins (static) or
        pre-admits (dynamic) the membership under the existing capacity
        and policy, capping the membership to the capacity.  Only with no
        cache configured does this install a fresh static cache pinning
        the whole membership (the historical behaviour).

        ``cache`` is a :class:`~repro.cache.sync.HotEmbeddingCache` (or
        anything exposing ``cached_ids(kind)``).
        """
        from repro.cache.filtering import HotSet

        hot = HotSet(
            entities=np.asarray(cache.cached_ids("entity"), dtype=np.int64),
            relations=np.asarray(cache.cached_ids("relation"), dtype=np.int64),
        )
        if self.cache is None:
            self.cache = ServingCache.static(hot)
        else:
            self.cache.rewarmed(hot)

    # -------------------------------------------------------------- event loop

    def run(self, queries: Iterable[Query], label: str | None = None) -> ServingReport:
        """Replay ``queries`` (any iterable, sorted by arrival) and report.

        Can be called repeatedly; state (clock, results, counters)
        accumulates, matching a long-running server fed several streams.
        """
        stream = sorted(queries, key=lambda q: (q.arrival, q.qid))
        for query in stream:
            # Fire every timeout flush that comes due before this arrival.
            while True:
                deadline = self.batcher.deadline()
                if deadline is None or deadline > query.arrival:
                    break
                batch = self.batcher.poll(deadline)
                assert batch, "deadline implies a pending batch"
                self._process(batch, trigger=deadline, reason="timeout")
            query = self._admit(query)
            if query is None:
                continue
            full = self.batcher.offer(query)
            if full:
                self._process(full, trigger=query.arrival, reason="full")
        # End of stream: drain the last partial batch at its deadline.
        deadline = self.batcher.deadline()
        tail = self.batcher.drain()
        if tail:
            self._process(
                tail,
                trigger=deadline if deadline is not None else 0.0,
                reason="drain",
            )
        return self.report(label=label)

    # -------------------------------------------------------------- admission

    def _admit(self, query: Query) -> Query | None:
        """Run one arrival through the overload gates.

        Returns the (possibly degraded) query to enqueue, or ``None``
        when it was rejected/shed — in which case its first-class
        :class:`QueryResult` has already been recorded.  With neither
        gate configured this is a single-comparison fast path, keeping
        the plain serving loop bit-identical to the pre-overload one.
        """
        if self.admission is None and self.shedder is None:
            return query
        if self.admission is not None and not self.admission.admit(
            query.tenant, query.arrival
        ):
            self._complete([query], query.arrival, REJECTED)
            self.trace.count("serve.rejected")
            return None
        if self.shedder is not None:
            priority = (
                self.admission.priority(query.tenant)
                if self.admission is not None
                else 0
            )
            projected = self.shedder.projected_latency(
                query.arrival,
                self.clock.elapsed,
                len(self.batcher),
                self.batcher.max_wait,
            )
            decision = self.shedder.assess(priority, projected)
            if decision == SHED_DECISION:
                self._complete([query], query.arrival, SHED)
                self.trace.count("serve.shed")
                return None
            if decision == DEGRADED and len(query.candidates) > 1:
                truncated = self.shedder.truncated_candidates(query.candidates)
                if len(truncated) < len(query.candidates):
                    query = replace(query, candidates=truncated)
                    self._degraded_qids.add(query.qid)
                    self.trace.count("serve.degraded")
        return query

    # --------------------------------------------------------------- dispatch

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

        answers = None
        if pulled_ok:
            with self.trace.span("serve.compute", "compute") as span:
                answers = self.store.answer(batch, self.top_k)
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
        self._complete(
            batch, self.clock.elapsed, ADMITTED if pulled_ok else TIMEOUT, answers
        )
        if self.shedder is not None:
            self.shedder.observe_batch(
                len(batch), self.clock.elapsed - service_start
            )

    def _complete(
        self,
        queries: Sequence[Query],
        completion: float,
        outcome: str,
        answers: Sequence[float | np.ndarray] | None = None,
    ) -> None:
        """Record one completion per query at simulated time ``completion``.

        Only admitted queries are answered, with the dispatch's
        ``answers`` (one per query).  Rejected and shed queries never
        reached a batch, so they complete with batch size 0.
        """
        answered = outcome == ADMITTED
        batch_size = 0 if outcome in (REJECTED, SHED) else len(queries)
        for i, query in enumerate(queries):
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
                    answer=answers[i] if answered else None,
                    outcome=outcome,
                    tenant=query.tenant,
                    degraded=degraded and answered,
                )
            )

    def _meter(self, kind: str, miss_ids: np.ndarray) -> CommRecord:
        """Traffic to pull ``miss_ids`` to this frontend."""
        kv = self.store.store
        return meter_rows(
            kv.owners(kind, miss_ids),
            self.machine,
            kv.row_width(kind) * BYTES_PER_ELEMENT * self.byte_scale,
        )

    # ----------------------------------------------------------------- report

    def report(self, label: str | None = None) -> ServingReport:
        """Aggregate everything served so far into a report."""
        if label is None:
            label = self.cache.label if self.cache is not None else "no-cache"
        return aggregate_results(
            label=label,
            results=self.results,
            hit_ratio=self.cache.hit_ratio if self.cache is not None else 0.0,
            comm=self.comm_totals,
            num_batches=self.batcher.batches_emitted,
            mean_batch_size=self.batcher.mean_batch_size,
            compute_time=self.clock.category("compute"),
            communication_time=self.clock.category("communication"),
            idle_time=self.clock.category("idle"),
            slo=self.shedder.slo if self.shedder is not None else None,
            staleness=int(getattr(self.store, "staleness", 0)),
            version_swaps=int(getattr(self.store, "swaps", 0)),
        )
