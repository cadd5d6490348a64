"""HET-KG trainer: the full simulated cluster assembly and training loop.

``HETKGTrainer`` wires together everything the paper's Fig. 3 shows: a
METIS-partitioned knowledge graph, one server shard + one worker per
machine, and (when enabled) per-worker hot-embedding caches managed by the
CPS or DPS strategy with bounded-staleness synchronization.

With ``cache_strategy="none"`` the identical machinery degrades to DGL-KE's
pull-everything-per-batch loop, which is how the baseline is implemented
(:class:`repro.core.baselines.DGLKETrainer`).
"""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass, field
from functools import partialmethod

import numpy as np

from repro.cache.strategies import (
    ConstantPartialStale,
    DynamicPartialStale,
    HotEmbeddingStrategy,
)
from repro.cache.sync import HotEmbeddingCache
from repro.core.config import TrainingConfig
from repro.core.convergence import TrainingHistory
from repro.core.ledger import RunLedger, check_eval_budget, epoch_point
from repro.core.telemetry import Telemetry
from repro.core.evaluation import LinkPredictionResult, check_known, evaluate_link_prediction
from repro.core.worker import Worker
from repro.kg.graph import KnowledgeGraph
from repro.models.base import KGEModel, get_model
from repro.models.losses import get_loss
from repro.obs.tracer import Tracer, get_tracer
from repro.optim import get_optimizer
from repro.partition.base import Partition
from repro.partition.metis import MetisPartitioner
from repro.partition.random_partition import RandomPartitioner
from repro.ps.compression import get_compressor
from repro.ps.kvstore import ShardedKVStore
from repro.ps.network import CommRecord, ComputeModel, NetworkModel
from repro.ps.server import ParameterServer
from repro.sampling.cache import CachedNegativeSampler
from repro.sampling.minibatch import EpochSampler
from repro.sampling.negative import NegativeSampler
from repro.utils.rng import make_rng, split_worker_streams


def make_strategy(config: TrainingConfig) -> HotEmbeddingStrategy | None:
    """Build the cache strategy ``config`` selects (``None`` for cacheless)."""
    cfg = config
    if cfg.cache_strategy == "cps":
        return ConstantPartialStale(cfg.cache_capacity, cfg.entity_ratio)
    if cfg.cache_strategy == "dps":
        return DynamicPartialStale(
            cfg.cache_capacity, cfg.dps_window, cfg.entity_ratio
        )
    if cfg.cache_strategy == "adaptive":
        # Imported lazily: the ADAPTIVE strategy lives in the streaming
        # subsystem and the static trainers must not depend on it.
        from repro.stream.drift import AdaptiveStale

        return AdaptiveStale(
            cfg.cache_capacity,
            cfg.dps_window,
            cfg.entity_ratio,
            threshold=cfg.adaptive_threshold,
            decay=cfg.adaptive_decay,
        )
    return None


def build_worker(
    machine: int,
    train_graph: KnowledgeGraph,
    triple_idx: np.ndarray,
    server,
    model: KGEModel,
    loss,
    network: NetworkModel,
    config: TrainingConfig,
    neg_seed: int | np.random.Generator,
    sampler_seed: int | np.random.Generator,
) -> Worker:
    """Assemble one machine's worker (sampler, cache, cost models)."""
    cfg = config
    subgraph = train_graph.subgraph(triple_idx)
    neg_kwargs = dict(
        num_entities=train_graph.num_entities,
        num_negatives=cfg.num_negatives,
        strategy=cfg.negative_strategy,
        chunk_size=cfg.negative_chunk,
        filter_graph=train_graph if cfg.filter_false_negatives else None,
        seed=neg_seed,
    )
    if cfg.neg_cache != "off":
        neg = CachedNegativeSampler(
            **neg_kwargs,
            mode=cfg.neg_cache,
            cache_size=cfg.neg_cache_size,
            pool_size=cfg.neg_cache_pool,
            refresh_period=cfg.neg_cache_refresh,
            refresh_keys=cfg.neg_cache_keys,
            temperature=cfg.neg_cache_temperature,
            anneal_steps=cfg.neg_cache_anneal,
        )
    else:
        neg = NegativeSampler(**neg_kwargs)
    sampler = EpochSampler(subgraph, cfg.batch_size, neg, seed=sampler_seed)
    compute = ComputeModel(
        throughput=cfg.compute_throughput * cfg.speed_of(machine)
    )
    strategy = make_strategy(cfg)
    cache = None
    if strategy is not None:
        # Either cache table may hold up to the whole budget: the filtering
        # algorithm enforces the entity/relation split (and reassigns slots
        # one side cannot fill), bounding the *combined* size by the
        # configured capacity.
        cache = HotEmbeddingCache(
            entity_capacity=cfg.cache_capacity,
            relation_capacity=cfg.cache_capacity,
            entity_width=model.entity_dim,
            relation_width=model.relation_dim,
            sync_period=cfg.sync_period,
            local_lr=cfg.lr,
        )
    return Worker(
        machine,
        sampler,
        server,
        model,
        loss,
        network,
        compute,
        strategy=strategy,
        cache=cache,
        cost_dim=cfg.cost_dim,
    )


@dataclass
class TrainResult:
    """Everything a training run produced.

    ``sim_time`` is the slowest machine's simulated clock — the paper's
    "Time" column.  ``compute_time``/``communication_time`` are that same
    machine's breakdown (Fig. 7).  ``comm_totals`` sums the bytes each
    machine booked (:attr:`repro.core.worker.Worker.comm`).
    """

    config: TrainingConfig
    system: str
    history: TrainingHistory
    sim_time: float
    compute_time: float
    communication_time: float
    comm_totals: CommRecord
    cache_hit_ratio: float
    #: Fault/recovery counters when a FaultPlan was active (see
    #: :class:`repro.faults.FaultStats.as_dict`; empty for fault-free runs).
    fault_stats: dict[str, float] = field(default_factory=dict)
    #: The injector's incident log behind ``fault_stats`` — one
    #: :class:`repro.faults.FaultEvent` per retry, forced pull, stale
    #: overrun, lost push and crash restart (empty for fault-free runs).
    fault_events: list = field(default_factory=list)
    #: Simulated seconds spent moving/(de)quantizing tier data this run
    #: (0.0 for the resident backing).
    tier_time: float = 0.0
    #: ``ShardedKVStore.memory_report()`` taken at the end of the run —
    #: per-kind/per-tier byte breakdown (plain dicts, picklable for the
    #: parallel experiment runner).
    memory_report: dict = field(default_factory=dict)
    #: The executor that ran the epochs: ``"sim"`` (round-robin simulated
    #: workers) or ``"mp/<schedule>"`` (worker processes; :mod:`repro.mp`).
    backend: str = "sim"
    #: Real seconds the executor ran the epochs (evaluations included).
    wall_time_s: float = 0.0
    #: Per-worker wall-clock spans for mp runs: ``{machine: {"wall_s": ...,
    #: "stall_s": ..., "stalls": ...}}`` where stalls are time spent blocked
    #: on the sync-schedule turn protocol or the async staleness bound.
    worker_wall: dict = field(default_factory=dict)
    #: Corruptions that exhausted their false-negative resample retries and
    #: trained on a true triple anyway (0 unless filter_false_negatives hit
    #: a dense neighbourhood; summed over workers for this train() call).
    false_negative_leaks: int = 0
    #: Candidate triples scored across all workers this run (training
    #: forward passes + hard-negative refresh scoring) — the efficiency
    #: axis of the negative-sampling experiment.
    scored_candidates: int = 0
    #: Hard-negative cache accounting when ``config.neg_cache != "off"``
    #: (see :mod:`repro.sampling.cache`): refresh counters summed over
    #: workers, ``cache_keys``/``pending_keys`` (keys holding a cache /
    #: touched keys still queued for a refresh when the run ended — the
    #: backlog), ``refresh_bytes``/``refresh_messages`` (the pulls the
    #: refreshes paid for) and ``neg_cache_time`` (the slowest machine's
    #: ``"neg_cache"`` clock category).  Empty when the cache is off.
    neg_cache_stats: dict = field(default_factory=dict)

    @property
    def final_metrics(self) -> dict[str, float]:
        """The last epoch's evaluation metrics (empty if none ran)."""
        return self.history.points[-1].metrics if self.history.points else {}

    @property
    def communication_fraction(self) -> float:
        if self.sim_time == 0:
            return 0.0
        return self.communication_time / self.sim_time


class HETKGTrainer:
    """Distributed KGE training with hotness-aware caches.

    Parameters
    ----------
    config:
        The full hyperparameter set.  ``config.cache_strategy`` selects
        HET-KG-C (``"cps"``), HET-KG-D (``"dps"``), or the cache-less
        DGL-KE behaviour (``"none"``).
    """

    system_name = "HET-KG"

    def __init__(self, config: TrainingConfig) -> None:
        self.config = config
        self.model: KGEModel = get_model(config.model, config.dim)
        self.loss = get_loss(config.loss, config.margin)
        self.network = NetworkModel(
            bandwidth=config.bandwidth, latency=config.latency
        )
        self._rng = make_rng(config.seed)
        self.server: ParameterServer | None = None
        self.workers: list[Worker] = []
        self.partition: Partition | None = None

    # ------------------------------------------------------------------ setup

    def _make_partitioner(self):
        if self.config.partitioner == "metis":
            return MetisPartitioner(seed=self._rng)
        return RandomPartitioner(seed=self._rng)

    @property
    def steps_per_epoch(self) -> int:
        """Steps every worker runs per epoch (after :meth:`setup`): the
        largest shard's batch count, so ``epochs * steps_per_epoch`` is the
        run's step budget."""
        return max(w.sampler.batches_per_epoch for w in self.workers)

    def setup(self, train_graph: KnowledgeGraph) -> None:
        """Partition the graph and build the cluster (idempotent)."""
        if self.server is not None:
            return
        cfg = self.config
        partitioner = self._make_partitioner()
        self.partition = partitioner.partition(train_graph, cfg.num_machines)

        entity_table = self.model.init_entities(train_graph.num_entities, self._rng)
        relation_table = self.model.init_relations(
            train_graph.num_relations, self._rng
        )
        tier_cfg = None
        if cfg.backing == "tiered":
            # Imported lazily: resident-backing trainers must not depend on
            # (or pay import cost for) the tier subsystem.
            from repro.tier import TierConfig, TierPolicy

            tier_cfg = TierConfig(
                budget=cfg.memory_budget,
                policy=TierPolicy(
                    block_rows=cfg.tier_block_rows,
                    cold_codec=cfg.tier_cold_codec,
                ),
                directory=cfg.tier_dir,
            )
        store = ShardedKVStore(
            entity_table,
            relation_table,
            self.partition.entity_part,
            cfg.num_machines,
            backing=cfg.backing,
            tier=tier_cfg,
        )
        self.server = ParameterServer(
            store,
            get_optimizer(cfg.optimizer, cfg.lr),
            byte_scale=cfg.byte_scale,
            compressor=get_compressor(cfg.compression),
        )

        # Two streams per machine: negative sampler, epoch sampler.
        seeds = split_worker_streams(self._rng, cfg.num_machines * 2)
        for machine in range(cfg.num_machines):
            triple_idx = self.partition.triples_of(machine)
            if len(triple_idx) == 0:
                continue  # tiny graphs may leave a machine without triples
            self.workers.append(
                build_worker(
                    machine,
                    train_graph,
                    triple_idx,
                    self.server,
                    self.model,
                    self.loss,
                    self.network,
                    cfg,
                    seeds[2 * machine],
                    seeds[2 * machine + 1],
                )
            )

    def _begin(
        self,
        train_graph: KnowledgeGraph,
        telemetry: Telemetry | None = None,
        tracer: Tracer | None = None,
        faults=None,
        checkpoint_every: int | None = None,
        checkpoint_path=None,
    ):
        """Start one training call; returns ``(ledger, injector, checkpoints)``.

        Every per-call instrument is set on every worker each time, and
        one the call does not pass is off: a later call on the same
        trainer records into no telemetry or tracer of an earlier one and
        its channels inject no faults unless it passes ``faults``.  The ledger
        opens before ``worker.start()``, so a first call's hot-table
        install is on its books and a later call reports only itself.
        """
        self.setup(train_graph)
        server = self.server
        assert server is not None
        tracer = tracer if tracer is not None else get_tracer()
        checkpoints = injector = recovery = None
        if checkpoint_every is not None or checkpoint_path is not None:
            from repro.faults.recovery import CheckpointManager

            checkpoints = CheckpointManager(
                self, every=checkpoint_every, path=checkpoint_path
            )
        if faults is not None:
            from repro.faults.injector import FaultInjector
            from repro.faults.recovery import ShardRecovery

            faults.check_cluster(self.config.num_machines)
            injector = FaultInjector(faults)
            if checkpoints is not None:
                recovery = ShardRecovery(server, checkpoints)
        for worker in self.workers:
            worker.attach(
                server,
                telemetry=telemetry,
                tracer=tracer,
                faults=injector,
                recovery=recovery,
            )
        tier = server.store.tier
        if tier is not None:
            tier.bind_trace(tracer.scope("tier", tier.clock))
        ledger = RunLedger(
            lambda: [w.stats() for w in self.workers],
            tier.clock if tier is not None else None,
        )
        return ledger, injector, checkpoints

    # ------------------------------------------------------------------ train

    def train(
        self,
        train_graph: KnowledgeGraph,
        eval_graph: KnowledgeGraph | None = None,
        known: KnowledgeGraph | None = None,
        eval_every: int | None = None,
        eval_max_queries: int | None = 200,
        eval_candidates: int | None = 500,
        telemetry: Telemetry | None = None,
        tracer: Tracer | None = None,
        faults=None,
        checkpoint_every: int | None = None,
        checkpoint_path=None,
        *,
        backend: str = "sim",
        schedule: str | None = None,
        staleness_bound: int | None = None,
        start_method: str | None = None,
        timeout_s: float | None = None,
        crash_at_step: tuple[int, int] | None = None,
    ) -> TrainResult:
        """Run ``config.epochs`` epochs; optionally evaluate along the way.

        Parameters
        ----------
        eval_graph:
            Validation/test triples to rank at epoch boundaries.
        known:
            The graph of every known true triple, for filtered ranking
            (``None`` ranks raw); a set of triples raises ``TypeError``
            before any set-up.
        eval_every:
            Evaluate every this many epochs (``None`` = only after the
            final epoch, and only if ``eval_graph`` is given).
        telemetry:
            Optional per-iteration recorder attached to every worker.
        tracer:
            Optional :mod:`repro.obs` tracer; defaults to the process-wide
            one (the zero-cost null tracer unless ``--trace`` installed one).
        faults:
            Optional :class:`repro.faults.FaultPlan`: deterministic chaos.
            A plan scheduling no faults reproduces the injector-free run.
        checkpoint_every, checkpoint_path:
            Auto-checkpoint the global state every this many iterations
            (crash recovery rewinds a dead machine's shard to the last
            snapshot), and also write each one to this ``.npz`` path.
        backend:
            ``"sim"`` steps the workers round-robin in this process; ``"mp"``
            runs one OS process per worker over shared-memory PS tables
            (:mod:`repro.mp.backend`), and rejects a tracer, ``faults``,
            checkpoints and tiered backing before any set-up.
        schedule, staleness_bound, start_method, timeout_s, crash_at_step:
            mp only.  ``schedule="sync"`` is bit-identical to the
            simulator; ``"async"`` (the default) is hogwild, no worker more
            than ``staleness_bound`` steps (default: the sync period) ahead.
        """
        check_known(known)
        check_eval_budget(eval_every, eval_max_queries, eval_candidates)
        mp_args = dict(
            schedule=schedule, staleness_bound=staleness_bound, start_method=start_method,
            timeout_s=timeout_s, crash_at_step=crash_at_step,
        )
        given = [name for name, value in mp_args.items() if value is not None]
        if backend == "mp":
            from repro.mp.backend import check_mp_call, mp_epochs

            options = check_mp_call(
                self, tracer, faults, checkpoint_every, checkpoint_path, **mp_args
            )
        elif backend != "sim":
            raise ValueError(f"unknown backend {backend!r}; expected 'sim' or 'mp'")
        elif given:
            from repro.mp.backend import MP_ONLY_REASON

            raise ValueError(f"{given[0]} requires backend='mp': {MP_ONLY_REASON}")

        ledger, injector, checkpoints = self._begin(
            train_graph, telemetry, tracer, faults, checkpoint_every, checkpoint_path
        )
        worker_wall: dict = {}
        if backend == "mp":
            epochs = mp_epochs(self, ledger, telemetry, worker_wall, **options)
        else:
            epochs = self._sim_epochs(ledger, checkpoints)
        history = TrainingHistory()
        wall_start = time.perf_counter()
        with closing(epochs):
            for epoch, (losses, sim_time) in enumerate(epochs, 1):
                history.append(
                    epoch_point(
                        self, epoch, sim_time, losses, eval_graph, known,
                        eval_every, eval_max_queries, eval_candidates,
                    )
                )
        wall_time_s = time.perf_counter() - wall_start

        summary = ledger.summary()
        fault_stats: dict[str, float] = {}
        fault_events: list = []
        if injector is not None:
            fault_stats = injector.stats.as_dict()
            fault_stats["recovery_time"] = summary.recovery_time
            fault_events = injector.events
        if checkpoints is not None:
            fault_stats["checkpoints"] = checkpoints.saves
        return TrainResult(
            config=self.config,
            system=self.system_name,
            history=history,
            fault_stats=fault_stats,
            fault_events=fault_events,
            memory_report=self.server.store.memory_report(),
            backend=f"mp/{options['schedule']}" if backend == "mp" else "sim",
            wall_time_s=wall_time_s,
            worker_wall=worker_wall,
            **summary.fields_for(TrainResult),
        )

    train_mp = partialmethod(train, backend="mp")

    def _sim_epochs(self, ledger: RunLedger, checkpoints):
        """The simulator's executor: yield each epoch's ``(losses, sim
        seconds)``, the losses in step order."""
        for worker in self.workers:
            worker.start()
        iterations = self.steps_per_epoch
        global_iteration = 0
        for _ in range(self.config.epochs):
            losses = []
            # Round-robin interleaving simulates concurrent asynchronous
            # workers deterministically: each worker's cache misses the
            # other workers' pushes until its own refresh, exactly the
            # staleness the synchronization algorithm bounds.
            for _ in range(iterations):
                for worker in self.workers:
                    losses.append(worker.step())
                global_iteration += 1
                if checkpoints is not None:
                    checkpoints.maybe_snapshot(global_iteration)
            yield losses, ledger.sim_time()

    # --------------------------------------------------------------- evaluate

    def evaluate(
        self,
        test_graph: KnowledgeGraph,
        known: KnowledgeGraph | None = None,
        max_queries: int | None = 200,
        num_candidates: int | None = 500,
    ) -> LinkPredictionResult:
        """Filtered link prediction against the server's global tables."""
        if self.server is None:
            raise RuntimeError("train() or setup() must run before evaluate()")
        return evaluate_link_prediction(
            self.model,
            self.server.store.table("entity"),
            self.server.store.table("relation"),
            test_graph,
            known=known,
            max_queries=max_queries,
            num_candidates=num_candidates,
            seed=self.config.seed + 7,
        )


def make_trainer(system: str, config: TrainingConfig):
    """Build the trainer for a paper system name.

    ``system`` is one of ``"hetkg-c"``, ``"hetkg-d"``, ``"hetkg-a"``,
    ``"dglke"``, ``"pbg"`` (case-insensitive).
    """
    from repro.core.baselines import DGLKETrainer, PBGTrainer

    key = system.lower()
    if key in ("hetkg-c", "het-kg-c", "cps"):
        return HETKGTrainer(config.with_overrides(cache_strategy="cps"))
    if key in ("hetkg-d", "het-kg-d", "dps"):
        return HETKGTrainer(config.with_overrides(cache_strategy="dps"))
    if key in ("hetkg-a", "het-kg-a", "adaptive"):
        return HETKGTrainer(config.with_overrides(cache_strategy="adaptive"))
    if key in ("dglke", "dgl-ke"):
        return DGLKETrainer(config)
    if key == "pbg":
        return PBGTrainer(config)
    raise KeyError(
        f"unknown system {system!r}; expected hetkg-c, hetkg-d, hetkg-a, "
        f"dglke, or pbg"
    )
