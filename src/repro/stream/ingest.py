"""Online training: interleave graph ingestion with training steps.

:class:`OnlineTrainer` wraps any parameter-server trainer
(:class:`~repro.core.trainer.HETKGTrainer` and its DGL-KE subclass) and
drives the same round-robin ``worker.step()`` loop as the static
``train()``, applying the due :class:`~repro.stream.events.GraphUpdate`
records at iteration boundaries.  Each applied update

* grows the PS shards (and, lazily, the server optimizer's accumulators)
  for new entity/relation ids, cold-started through the model's own init
  scheme from a dedicated ingest RNG;
* routes inserted triples to the machine owning their head entity and
  records each worker's edit of its local graph
  (:meth:`~repro.sampling.minibatch.EpochSampler.record`), which the
  sampler folds into its graph and epoch walk when it next draws a
  batch, without consuming training randomness;
* evicts cache rows whose ids were touched by deletions
  (:meth:`~repro.cache.sync.HotEmbeddingCache.invalidate_ids`);
* books the delivery and cold-start traffic on the receiving machines
  (:meth:`~repro.core.worker.Worker.charge` under the ``"ingest"`` clock
  category), with obs spans to match;
* feeds the inserts to the prequential evaluator *before* they are
  trained on (test-then-train);
* records its edit of the global graph, which :attr:`OnlineTrainer.graph`
  folds in when it is read (every update with the false-negative filter
  on, otherwise never during the run).

Local and global graphs keep their edits in the same
:class:`~repro.kg.graph.EditLog`: one pass folds all the edits recorded
since the last read.

The empty-stream invariant: with ``drift="none"`` no ingest code path
runs, no extra RNG is drawn, and the step sequence equals the static
trainer's — the run is bit-identical (asserted by the golden tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.baselines import PBGTrainer
from repro.core.trainer import HETKGTrainer
from repro.kg.graph import HEAD, REL, TAIL, EditLog, KnowledgeGraph
from repro.ps.network import BYTES_PER_ELEMENT, CommRecord
from repro.sampling.cache import CachedNegativeSampler
from repro.stream.drift import AdaptiveStale
from repro.stream.eval import PrequentialEvaluator, PrequentialResult
from repro.stream.events import EventStream, GraphUpdate
from repro.utils.rng import derive_stream
from repro.utils.validation import check_positive

#: Wire size of one (h, r, t) triple record in an ingestion message.
TRIPLE_RECORD_BYTES = 24  # 3 x int64

#: Salt for the ingestion side-stream: cold-start embedding rows must not
#: consume draws from (or shift) the training streams.
INGEST_STREAM_SALT = 104729


@dataclass
class OnlineTrainResult:
    """Everything one online run produced."""

    system: str
    steps: int
    sim_time: float
    compute_time: float
    communication_time: float
    ingest_time: float
    comm_totals: CommRecord
    cache_hit_ratio: float
    mean_loss: float
    prequential: PrequentialResult
    updates_applied: int = 0
    triples_inserted: int = 0
    triples_deleted: int = 0
    entities_added: int = 0
    relations_added: int = 0
    cache_rows_invalidated: int = 0
    #: Hard-negative cache keys dropped because their anchor entity or
    #: relation lost graph structure to deletions (0 with neg_cache=off).
    neg_cache_keys_invalidated: int = 0
    #: Merged hard-negative cache counters + refresh traffic across
    #: workers (empty dict with neg_cache=off) — same shape as
    #: :attr:`repro.core.trainer.TrainResult.neg_cache_stats`.
    neg_cache_stats: dict = field(default_factory=dict)
    adaptive_rebuilds: int = 0


class OnlineTrainer:
    """Test-then-train loop over a trainer and an event stream.

    Parameters
    ----------
    trainer:
        A (not yet set up) trainer whose workers this loop steps; its
        config decides the cache strategy, so the same ``OnlineTrainer``
        serves DGL-KE, CPS, DPS and ADAPTIVE runs (PBG has no workers and
        raises ``ValueError``).
    stream:
        The seeded update sequence (``EventStream(updates=[])`` for static
        behaviour).
    eval_every:
        Evaluate the prequential holdout every this many steps (``None``
        = once at the end, if the stream delivered any triples).
    eval_window / eval_candidates / eval_queries:
        Sliding-holdout evaluator budget (see
        :class:`~repro.stream.eval.PrequentialEvaluator`).
    """

    def __init__(
        self,
        trainer: HETKGTrainer,
        stream: EventStream,
        eval_every: int | None = None,
        eval_window: int = 256,
        eval_candidates: int | None = 100,
        eval_queries: int = 50,
    ) -> None:
        if isinstance(trainer, PBGTrainer):
            from repro.mp.backend import PBG_REASON

            raise ValueError(f"OnlineTrainer cannot drive PBG: {PBG_REASON}")
        if eval_every is not None:
            check_positive("eval_every", eval_every)
        self.trainer = trainer
        self.stream = stream
        self.eval_every = eval_every
        self.graph = None
        #: Fixed for a run, set by :meth:`train`: the workers in machine
        #: order, and the machine an insert goes to for each owner id the
        #: store can name.
        self._routing: tuple[list, np.ndarray] | None = None
        self._cursor = 0
        self._ingest_rng = derive_stream(trainer.config.seed, INGEST_STREAM_SALT)
        self.evaluator = PrequentialEvaluator(
            trainer.model,
            window=eval_window,
            num_candidates=eval_candidates,
            max_queries=eval_queries,
            seed=trainer.config.seed + 13,
        )

    # ------------------------------------------------------------ global graph

    @property
    def graph(self) -> KnowledgeGraph | None:
        """The training graph with every update applied so far.

        Folded in when read: an update only records its edit, and a read
        applies the edits recorded since the last one in one pass
        (:meth:`~repro.kg.graph.EditLog.fold`) — the graph an eager
        rebuild after every update would hold.  Only the false-negative
        filter reads it during a run.
        """
        if self._log is None:
            return None
        if self._log.pending:
            self._log.fold()
        return self._log.base

    @graph.setter
    def graph(self, graph: KnowledgeGraph | None) -> None:
        self._log = None if graph is None else EditLog(graph)

    # -------------------------------------------------------------- ingestion

    def _grow_vocab(self, update: GraphUpdate) -> CommRecord:
        """Append embedding rows for new ids; returns the cold-start bytes
        per owning machine folded into one record (caller charges it).

        The PS tables are the vocabulary: an id is new when its table has
        no row for it yet, whichever call minted the row."""
        trainer = self.trainer
        assert trainer.server is not None
        store = trainer.server.store
        comm = CommRecord()
        n_new_ent = update.num_entities - len(store.table("entity"))
        n_new_rel = update.num_relations - len(store.table("relation"))
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
        assert trainer.server is not None
        store = trainer.server.store

        # Test-then-train: the holdout sees the inserts before any worker
        # trains on them.
        if len(update.inserts):
            self.evaluator.observe(update.inserts)

        init_comm = self._grow_vocab(update)

        inserts = np.asarray(update.inserts, dtype=np.int64).reshape(-1, 3)
        deletes = np.asarray(update.deletes, dtype=np.int64).reshape(-1, 3)
        n_ent, n_rel = update.num_entities, update.num_relations
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
        assert self._routing is not None
        workers, machine_of_owner = self._routing
        owners = machine_of_owner[store.owners("entity", inserts[:, HEAD])]

        deleted_total = 0
        for worker in workers:
            local_inserts = inserts[owners == worker.machine]
            deleted_here = worker.sampler.record(
                local_inserts, deletes, n_ent, n_rel
            )
            if deleted_here is None:
                continue
            deleted_total += deleted_here
            with worker.trace.span(
                "ingest.apply", "ingest",
                inserts=len(local_inserts), deletes=deleted_here,
            ):
                # Stale cache rows: ids whose graph structure was deleted.
                if worker.cache is not None:
                    evicted = worker.cache.invalidate_ids(
                        "entity", affected_entities
                    )
                    evicted += worker.cache.invalidate_ids(
                        "relation", affected_relations
                    )
                    self.cache_rows_invalidated += evicted
                    if isinstance(worker.strategy, AdaptiveStale):
                        worker.strategy.drop_ids(
                            affected_entities, affected_relations
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
        if init_comm.total_bytes and workers:
            worker = workers[0]
            with worker.trace.span(
                "ingest.cold_start", "ingest", bytes=init_comm.total_bytes
            ):
                worker.charge(init_comm, "ingest")

        self._log.record(inserts, deletes, n_ent, n_rel, count=False)
        # Refresh the false-negative filter against the post-update graph.
        if trainer.config.filter_false_negatives:
            graph = self.graph
            for worker in trainer.workers:
                worker.sampler.negative_sampler.resize(
                    n_ent, filter_graph=graph
                )

        self.updates_applied += 1
        self.triples_inserted += len(inserts)
        self.triples_deleted += deleted_total

    # ------------------------------------------------------------------ train

    def train(self, train_graph: KnowledgeGraph) -> OnlineTrainResult:
        """Run ``config.epochs`` x (initial batches-per-epoch) steps,
        applying stream updates as their timestamps come due.

        The step budget is fixed up front from the *initial* graph so the
        empty-stream run performs exactly the static trainer's step
        sequence; a growing graph trains more triples per epoch walk, not
        more steps.
        """
        trainer = self.trainer
        ledger, _, _ = trainer._begin(train_graph)
        # This call's counts: what the ingest loop below adds to them.
        self.updates_applied = self.triples_inserted = self.triples_deleted = 0
        self.entities_added = self.relations_added = 0
        self.cache_rows_invalidated = self.neg_cache_keys_invalidated = 0
        adaptive = [
            w.strategy for w in trainer.workers
            if isinstance(w.strategy, AdaptiveStale)
        ]
        rebuilds_before = sum(strategy.rebuilds for strategy in adaptive)
        points_before = len(self.evaluator.result.points)
        # A later call continues the graph an earlier one edited, as the
        # workers' local graphs do.
        if self.graph is None:
            self.graph = train_graph
        by_machine = {w.machine: w for w in trainer.workers}
        machines = sorted(by_machine)
        owner_ids = np.arange(trainer.server.store.num_machines)
        self._routing = (
            [by_machine[machine] for machine in machines],
            # An owner without a worker hands its inserts round-robin.
            np.where(
                np.isin(owner_ids, machines),
                owner_ids,
                np.asarray(machines, dtype=np.int64)[owner_ids % len(machines)],
            ),
        )
        cfg = trainer.config
        total_steps = cfg.epochs * trainer.steps_per_epoch

        for worker in trainer.workers:
            worker.start()

        losses: list[float] = []
        for step in range(1, total_steps + 1):
            while (
                self._cursor < len(self.stream.updates)
                and self.stream.updates[self._cursor].step <= step
            ):
                self._apply_update(self.stream.updates[self._cursor])
                self._cursor += 1
            for worker in trainer.workers:
                losses.append(worker.step())
            if (
                self.eval_every is not None
                and step % self.eval_every == 0
                and self.evaluator.holdout_size
            ):
                self._evaluate(step)
        if self.eval_every is None and self.evaluator.holdout_size:
            self._evaluate(total_steps)

        return OnlineTrainResult(
            system=trainer.system_name,
            steps=total_steps,
            mean_loss=float(np.mean(losses)) if losses else 0.0,
            prequential=PrequentialResult(self.evaluator.result.points[points_before:]),
            updates_applied=self.updates_applied,
            triples_inserted=self.triples_inserted,
            triples_deleted=self.triples_deleted,
            entities_added=self.entities_added,
            relations_added=self.relations_added,
            cache_rows_invalidated=self.cache_rows_invalidated,
            neg_cache_keys_invalidated=self.neg_cache_keys_invalidated,
            adaptive_rebuilds=sum(s.rebuilds for s in adaptive) - rebuilds_before,
            **ledger.summary().fields_for(OnlineTrainResult),
        )

    # ------------------------------------------------------------------ evals

    def _evaluate(self, step: int) -> None:
        assert self.trainer.server is not None
        store = self.trainer.server.store
        relations = store.table("relation")
        self.evaluator.evaluate(
            step,
            store.table("entity"),
            relations,
            num_relations=len(relations),
        )
