"""Reimplementations of the paper's baseline systems.

* :class:`DGLKETrainer` — DGL-KE's training loop (§III-B): the identical
  co-located PS machinery as HET-KG with the hot-embedding cache disabled,
  so every batch pulls all of its embeddings from the parameter server.
* :class:`PBGTrainer` — PyTorch-BigGraph's block-based loop (§III-B):
  entities are partitioned into buckets that are swapped in and out of
  workers wholesale, entity updates are purely local, and **relation
  embeddings are treated as dense model weights** synchronised through a
  shared parameter server every batch — the design decision the paper
  blames for PBG's communication volume (Fig. 7).

Both baselines subclass :class:`~repro.core.trainer.HETKGTrainer`: one
``train()``, one parameter server holding the tables, one evaluation and
HET-KG's gradient math and cost models, so measured differences come only
from how each system moves embeddings.  PBG replaces only the executor
(its bucket schedule) and the books it keeps.
"""

from __future__ import annotations

import numpy as np

from repro.core.compute import compute_batch_gradients
from repro.core.config import TrainingConfig
from repro.core.ledger import WorkerStats
from repro.core.trainer import HETKGTrainer
from repro.kg.graph import HEAD, TAIL, KnowledgeGraph
from repro.partition.random_partition import RandomPartitioner
from repro.ps.kvstore import ENTITY, RELATION
from repro.ps.network import BYTES_PER_ELEMENT, CommRecord, ComputeModel
from repro.sampling.minibatch import EpochSampler
from repro.sampling.negative import NegativeSampler
from repro.utils.rng import spawn_rngs
from repro.utils.simclock import SimClock

#: Why PBG turns an argument down, stated once: ``PBGTrainer.train``
#: raises these and ``repro.cli.RULES`` prints the ones it has a flag for.
NEG_CACHE_REASON = (
    "PBG's corruption loop never goes through the NegativeSampler seam the "
    "cache plugs into"
)
TELEMETRY_REASON = "PBG has no per-step record"


class DGLKETrainer(HETKGTrainer):
    """DGL-KE: parameter-server training without hot-embedding caches."""

    system_name = "DGL-KE"

    def __init__(self, config: TrainingConfig) -> None:
        super().__init__(config.with_overrides(cache_strategy="none"))


class PBGTrainer(HETKGTrainer):
    """PyTorch-BigGraph: block-partitioned training with dense relations.

    The simulation follows the four steps of §III-B:

    1. entities are split into ``config.pbg_partitions`` random partitions
       (a fixed preprocessing choice, independent of worker count) and
       triples are grouped into ``(head part, tail part)`` buckets;
    2. a worker acquiring a bucket loads both entity partitions over the
       network (the shared-filesystem swap) and writes them back when done;
    3. batches inside a bucket update entity embeddings locally, with
       negatives drawn from the bucket's own partitions;
    4. relation embeddings are dense model weights: every batch exchanges
       the *full* relation table with the shared parameter server.

    The lock server is modelled through partition leases: a bucket cannot
    start until both of its entity partitions are free, so at most
    ``floor(P/2)`` buckets run concurrently — PBG's documented parallelism
    bound, and the reason the paper finds its scalability limited (Fig. 6).
    Waiting time is charged as communication (coordination overhead).

    The tables and the one optimizer live in ``self.server`` as HET-KG's
    do, and ``train()``/``evaluate()`` are HET-KG's; only the executor
    (:meth:`_sim_epochs`, the lease loop) and the books are PBG's.  It
    drives no :class:`~repro.core.worker.Worker`: each machine's books are
    a clock and a :class:`~repro.ps.network.CommRecord`, traced on the
    ``worker{m}`` track, charged the traffic above directly.  The store's
    row owners (``entity part % num_machines``) exist only because a store
    needs them; these books never read them.
    """

    system_name = "PBG"

    # ------------------------------------------------------------------ setup

    def setup(self, train_graph: KnowledgeGraph) -> None:
        """Partition the entities, group the triples into buckets and build
        the server and the per-machine books (idempotent)."""
        if self.server is not None:
            return
        cfg = self.config
        self._graph = train_graph
        self.num_partitions = parts = min(cfg.pbg_partitions, train_graph.num_entities)
        entity_part = RandomPartitioner(seed=self._rng).partition(
            train_graph, parts
        ).entity_part
        self._entity_part = entity_part
        self._part_sizes = np.bincount(entity_part, minlength=parts)
        # One stable sort groups the triples by bucket: each bucket's
        # indices ascend, and the buckets come out in key order.
        triples = train_graph.triples
        keys = entity_part[triples[:, HEAD]] * parts + entity_part[triples[:, TAIL]]
        order = np.argsort(keys, kind="stable")
        bucket_keys, starts = np.unique(keys[order], return_index=True)
        self._buckets = {
            divmod(int(key), parts): idx
            for key, idx in zip(bucket_keys, np.split(order, starts[1:]))
        }
        self.server = self._make_server(
            self.model.init_entities(train_graph.num_entities, self._rng),
            self.model.init_relations(train_graph.num_relations, self._rng),
            entity_part % cfg.num_machines,
        )
        self._compute = ComputeModel(throughput=cfg.compute_throughput)
        #: Per-machine clocks and the bytes each one paid for.
        self._clocks = [SimClock() for _ in range(cfg.num_machines)]
        self._comms = [CommRecord() for _ in range(cfg.num_machines)]

    def _check_call(self, backend, telemetry, tracer, faults, checkpoint_every,
                    checkpoint_path, mp_args) -> None:
        super()._check_call(
            backend, telemetry, tracer, faults, checkpoint_every, checkpoint_path, mp_args
        )
        from repro.mp.backend import CHECKPOINT_REASON, FAULTS_REASON

        for what, given, reason in (
            ("faults", faults is not None, FAULTS_REASON),
            ("checkpoints", (checkpoint_every, checkpoint_path) != (None, None),
             CHECKPOINT_REASON),
            ("telemetry", telemetry is not None, TELEMETRY_REASON),
            ("a negative cache", self.config.neg_cache != "off", NEG_CACHE_REASON),
        ):
            if given:
                raise ValueError(f"PBG does not take {what}: {reason}")

    def _attach(self, tracer, telemetry, injector, recovery) -> None:
        # _check_call turned down every instrument but the tracer.
        self._traces = [
            tracer.scope(f"worker{m}", clock) for m, clock in enumerate(self._clocks)
        ]

    def _stats(self) -> list[WorkerStats]:
        return [
            WorkerStats(machine=m, clock=clock.copy(), comm=comm.copy())
            for m, (clock, comm) in enumerate(zip(self._clocks, self._comms))
        ]

    # ------------------------------------------------------------------ train

    def _swap_cost(self, parts: tuple[int, int]) -> CommRecord:
        """Bytes to load (or save) the bucket's entity partitions."""
        unique_parts = set(parts)
        rows = int(sum(self._part_sizes[p] for p in unique_parts))
        row_bytes = (
            self.model.entity_dim * BYTES_PER_ELEMENT * self.config.byte_scale
        )
        return CommRecord(
            remote_bytes=int(rows * row_bytes),
            remote_messages=len(unique_parts),
        )

    def _dense_relation_cost(self) -> CommRecord:
        """Per-batch full relation-table pull + gradient push."""
        rows, width = self.server.store.table(RELATION).shape
        bytes_one_way = int(rows * width * BYTES_PER_ELEMENT * self.config.byte_scale)
        return CommRecord(remote_bytes=2 * bytes_one_way, remote_messages=2)

    def _charge(self, machine: int, record: CommRecord, span: str) -> None:
        """Book ``record`` on ``machine``: bytes and clock, exactly once."""
        with self._traces[machine].span(span, "communication", bytes=record.total_bytes):
            self._comms[machine].merge(record)
            self._clocks[machine].advance(self.network.cost(record), "communication")

    def _train_bucket(
        self,
        key: tuple[int, int],
        triple_idx: np.ndarray,
        machine: int,
        rng: np.random.Generator,
    ) -> list[float]:
        cfg, train_graph = self.config, self._graph
        store, optimizer = self.server.store, self.server.optimizer
        clock, trace = self._clocks[machine], self._traces[machine]

        self._charge(machine, self._swap_cost(key), "swap_in")

        pool_mask = np.isin(
            self._entity_part, np.unique(np.asarray(key, dtype=np.int64))
        )
        pool = np.nonzero(pool_mask)[0]
        subgraph = train_graph.subgraph(triple_idx)
        neg = NegativeSampler(
            num_entities=train_graph.num_entities,
            num_negatives=cfg.num_negatives,
            strategy=cfg.negative_strategy,
            chunk_size=cfg.negative_chunk,
            entity_pool=pool,
            seed=rng,
        )
        sampler = EpochSampler(subgraph, cfg.batch_size, neg, seed=rng)

        losses = []
        for batch in sampler.epoch():
            ent_ids = batch.unique_entities()
            rel_ids = batch.unique_relations()
            with trace.span("compute", "compute"):
                grads = compute_batch_gradients(
                    self.model,
                    self.loss,
                    batch,
                    ent_ids,
                    store.read(ENTITY, ent_ids),
                    rel_ids,
                    store.read(RELATION, rel_ids),
                )
                clock.advance(
                    self._compute.batch_time(grads.num_scores, cfg.cost_dim),
                    "compute",
                )
            # Entities: in-memory partition copy, no communication.
            optimizer.update(
                ENTITY, store.table(ENTITY), grads.entity_ids, grads.entity_grads
            )
            # Relations: dense weights through the shared parameter server.
            optimizer.update(
                RELATION,
                store.table(RELATION),
                grads.relation_ids,
                grads.relation_grads,
            )
            self._charge(machine, self._dense_relation_cost(), "relations")
            losses.append(grads.loss)

        # Save the partitions back to the shared filesystem.
        self._charge(machine, self._swap_cost(key), "swap_out")
        return losses

    def _sim_epochs(self, ledger, checkpoints):
        """PBG's executor: sweep every bucket ``config.epochs`` times under
        the partition leases, yielding each epoch's ``(losses, sim
        seconds)``."""
        cfg = self.config
        bucket_rngs = spawn_rngs(self._rng, max(1, len(self._buckets)))
        # Lock-server state: the simulated time at which each entity
        # partition becomes free for the next bucket that needs it.  The
        # lease timeline is *per call* (clocks persist across train()
        # calls, so absolute elapsed values would carry skew from the
        # previous call into this one's waiting pattern).
        part_ready = [0.0] * self.num_partitions
        for _ in range(cfg.epochs):
            losses: list[float] = []
            for i, (key, idx) in enumerate(self._buckets.items()):
                machine = i % cfg.num_machines
                clock = self._clocks[machine]
                entry = ledger.entry[machine].clock.elapsed
                rel = clock.elapsed - entry
                ready = max(part_ready[p] for p in set(key))
                if ready > rel:
                    with self._traces[machine].span("lease_wait", "communication"):
                        clock.advance(ready - rel, "communication")
                losses.extend(self._train_bucket(key, idx, machine, bucket_rngs[i]))
                for p in set(key):
                    part_ready[p] = clock.elapsed - entry
            yield losses, ledger.sim_time()
