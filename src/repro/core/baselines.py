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

Both baselines share HET-KG's gradient math (:mod:`repro.core.compute`),
cost models, and evaluation, so measured differences come only from how
each system moves embeddings.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.core.compute import compute_batch_gradients
from repro.core.config import TrainingConfig
from repro.core.convergence import TrainingHistory
from repro.core.ledger import RunLedger, WorkerStats, check_eval_budget, epoch_point
from repro.core.evaluation import LinkPredictionResult, check_known, evaluate_link_prediction
from repro.core.trainer import HETKGTrainer, TrainResult
from repro.kg.graph import KnowledgeGraph
from repro.models.base import get_model
from repro.models.losses import get_loss
from repro.optim import get_optimizer
from repro.partition.random_partition import RandomPartitioner
from repro.ps.network import (
    BYTES_PER_ELEMENT,
    CommRecord,
    ComputeModel,
    NetworkModel,
)
from repro.sampling.minibatch import EpochSampler
from repro.sampling.negative import NegativeSampler
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.simclock import SimClock


class DGLKETrainer(HETKGTrainer):
    """DGL-KE: parameter-server training without hot-embedding caches."""

    system_name = "DGL-KE"

    def __init__(self, config: TrainingConfig) -> None:
        super().__init__(config.with_overrides(cache_strategy="none"))


class PBGTrainer:
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
    """

    system_name = "PBG"

    def __init__(self, config: TrainingConfig) -> None:
        self.config = config
        self.model = get_model(config.model, config.dim)
        self.loss = get_loss(config.loss, config.margin)
        self.network = NetworkModel(
            bandwidth=config.bandwidth, latency=config.latency
        )
        self.compute = ComputeModel(throughput=config.compute_throughput)
        self._rng = make_rng(config.seed)
        self.entity_table: np.ndarray | None = None
        self.relation_table: np.ndarray | None = None
        self._entity_part: np.ndarray | None = None
        self._buckets: dict[tuple[int, int], np.ndarray] = {}
        #: Per-machine clocks and the bytes each one paid for.
        self._clocks: list[SimClock] = []
        self._comms: list[CommRecord] = []

    # ------------------------------------------------------------------ setup

    def setup(self, train_graph: KnowledgeGraph) -> None:
        if self.entity_table is not None:
            return
        cfg = self.config
        self.num_partitions = min(cfg.pbg_partitions, train_graph.num_entities)
        partition = RandomPartitioner(seed=self._rng).partition(
            train_graph, self.num_partitions
        )
        self._entity_part = partition.entity_part
        buckets: dict[tuple[int, int], list[int]] = defaultdict(list)
        for idx, (h, _, t) in enumerate(train_graph.triples):
            key = (
                int(partition.entity_part[h]),
                int(partition.entity_part[t]),
            )
            buckets[key].append(idx)
        self._buckets = {
            key: np.asarray(v, dtype=np.int64) for key, v in buckets.items()
        }
        self.entity_table = self.model.init_entities(
            train_graph.num_entities, self._rng
        )
        self.relation_table = self.model.init_relations(
            train_graph.num_relations, self._rng
        )
        self._entity_opt = get_optimizer(cfg.optimizer, cfg.lr)
        self._relation_opt = get_optimizer(cfg.optimizer, cfg.lr)
        self._clocks = [SimClock() for _ in range(cfg.num_machines)]
        self._comms = [CommRecord() for _ in range(cfg.num_machines)]

    # ------------------------------------------------------------------ train

    def _swap_cost(self, parts: tuple[int, int]) -> CommRecord:
        """Bytes to load (or save) the bucket's entity partitions."""
        assert self._entity_part is not None
        counts = np.bincount(self._entity_part, minlength=self.num_partitions)
        unique_parts = set(parts)
        rows = int(sum(counts[p] for p in unique_parts))
        row_bytes = (
            self.model.entity_dim * BYTES_PER_ELEMENT * self.config.byte_scale
        )
        return CommRecord(
            remote_bytes=int(rows * row_bytes),
            remote_messages=len(unique_parts),
        )

    def _dense_relation_cost(self) -> CommRecord:
        """Per-batch full relation-table pull + gradient push."""
        assert self.relation_table is not None
        bytes_one_way = int(
            self.relation_table.size * BYTES_PER_ELEMENT * self.config.byte_scale
        )
        return CommRecord(remote_bytes=2 * bytes_one_way, remote_messages=2)

    def _charge(self, machine: int, record: CommRecord) -> None:
        """Book ``record`` on ``machine``: bytes and clock, exactly once."""
        self._comms[machine].merge(record)
        self._clocks[machine].advance(self.network.cost(record), "communication")

    def _train_bucket(
        self,
        train_graph: KnowledgeGraph,
        key: tuple[int, int],
        triple_idx: np.ndarray,
        machine: int,
        rng: np.random.Generator,
    ) -> list[float]:
        assert self.entity_table is not None and self.relation_table is not None
        assert self._entity_part is not None
        cfg = self.config
        clock = self._clocks[machine]

        self._charge(machine, self._swap_cost(key))

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
            grads = compute_batch_gradients(
                self.model,
                self.loss,
                batch,
                ent_ids,
                self.entity_table[ent_ids],
                rel_ids,
                self.relation_table[rel_ids],
            )
            clock.advance(
                self.compute.batch_time(grads.num_scores, self.config.cost_dim),
                "compute",
            )
            # Entities: in-memory partition copy, no communication.
            self._entity_opt.update(
                "entity", self.entity_table, grads.entity_ids, grads.entity_grads
            )
            # Relations: dense weights through the shared parameter server.
            self._relation_opt.update(
                "relation",
                self.relation_table,
                grads.relation_ids,
                grads.relation_grads,
            )
            self._charge(machine, self._dense_relation_cost())
            losses.append(grads.loss)

        # Save the partitions back to the shared filesystem.
        self._charge(machine, self._swap_cost(key))
        return losses

    def train(
        self,
        train_graph: KnowledgeGraph,
        eval_graph: KnowledgeGraph | None = None,
        known: KnowledgeGraph | None = None,
        eval_every: int | None = None,
        eval_max_queries: int | None = 200,
        eval_candidates: int | None = 500,
        *,
        backend: str = "sim",
    ) -> TrainResult:
        """Run ``config.epochs`` sweeps over all buckets (simulator only)."""
        check_known(known)
        check_eval_budget(eval_every, eval_max_queries, eval_candidates)
        if backend != "sim":
            from repro.mp.backend import PBG_REASON, MPUnsupportedError

            raise MPUnsupportedError(f"PBG trains with backend='sim' only: {PBG_REASON}")
        self.setup(train_graph)
        cfg = self.config
        history = TrainingHistory()
        bucket_rngs = spawn_rngs(self._rng, max(1, len(self._buckets)))

        ledger = RunLedger(
            lambda: [
                WorkerStats(machine=m, clock=c.copy(), comm=comm.copy())
                for m, (c, comm) in enumerate(zip(self._clocks, self._comms))
            ]
        )

        ordered = sorted(self._buckets.items())
        # Lock-server state: the simulated time at which each entity
        # partition becomes free for the next bucket that needs it.  The
        # lease timeline is *per call* (clocks persist across train()
        # calls, so absolute elapsed values would carry skew from the
        # previous call into this one's waiting pattern).
        part_ready = [0.0] * self.num_partitions
        for epoch in range(1, cfg.epochs + 1):
            losses: list[float] = []
            for i, (key, idx) in enumerate(ordered):
                machine = i % cfg.num_machines
                clock = self._clocks[machine]
                entry = ledger.entry[machine].clock.elapsed
                rel = clock.elapsed - entry
                ready = max(part_ready[p] for p in set(key))
                if ready > rel:
                    clock.advance(ready - rel, "communication")
                losses.extend(
                    self._train_bucket(
                        train_graph, key, idx, machine, bucket_rngs[i]
                    )
                )
                for p in set(key):
                    part_ready[p] = clock.elapsed - entry
            history.append(
                epoch_point(
                    self,
                    epoch,
                    ledger.sim_time(),
                    losses,
                    eval_graph,
                    known,
                    eval_every,
                    eval_max_queries,
                    eval_candidates,
                )
            )

        return TrainResult(
            config=cfg,
            system=self.system_name,
            history=history,
            **ledger.summary().fields_for(TrainResult),
        )

    # --------------------------------------------------------------- evaluate

    def evaluate(
        self,
        test_graph: KnowledgeGraph,
        known: KnowledgeGraph | None = None,
        max_queries: int | None = 200,
        num_candidates: int | None = 500,
    ) -> LinkPredictionResult:
        if self.entity_table is None or self.relation_table is None:
            raise RuntimeError("train() or setup() must run before evaluate()")
        return evaluate_link_prediction(
            self.model,
            self.entity_table,
            self.relation_table,
            test_graph,
            known=known,
            max_queries=max_queries,
            num_candidates=num_candidates,
            seed=self.config.seed + 7,
        )
