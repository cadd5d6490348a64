"""One machine's training loop (Algorithm 3, worker side).

A worker owns a partition of the training triples and iterates:

1. obtain the next mini-batch (live-sampled, or prefetched by the CPS/DPS
   strategy — Algorithm 1);
2. (cached workers) rebuild / synchronize the hot-embedding table when the
   strategy or the staleness bound ``P`` says so;
3. fetch the batch's embedding rows — hot ids from the local cache,
   everything else from the parameter server;
4. forward + backward (:mod:`repro.core.compute`);
5. apply its own gradients to cached rows and push *all* gradients to the
   parameter server (the server applies AdaGrad — Algorithm 4).

Every fetch/push is booked once, by :meth:`Worker.charge`: its bytes into
the worker's cumulative :attr:`Worker.comm`, its cost (through the network
model) onto the worker's simulated clock; every score/backprop advances the
clock through the compute model.  With ``cache=None`` and a live sampler
this is exactly the DGL-KE worker loop.
"""

from __future__ import annotations

from repro.cache.strategies import HotEmbeddingStrategy
from repro.cache.sync import HotEmbeddingCache
from repro.core.compute import compute_batch_gradients
from repro.core.ledger import WorkerStats
from repro.core.telemetry import IterationRecord, Telemetry
from repro.faults.rpc import PSChannel
from repro.obs.tracer import NULL_TRACER
from repro.models.base import KGEModel
from repro.models.losses import Loss
from repro.ps.network import CommRecord, ComputeModel, NetworkModel
from repro.ps.server import ParameterServer
from repro.sampling.cache import CachedNegativeSampler
from repro.sampling.minibatch import EpochSampler
from repro.utils.simclock import SimClock


class Worker:
    """A simulated training process on one machine.

    Parameters
    ----------
    machine:
        This worker's machine id (decides which embeddings are local).
    sampler:
        Mini-batch source over the worker's subgraph.
    server:
        The shared parameter server.
    model / loss:
        The scoring geometry and objective (shared by all workers).
    network / compute:
        Cost models converting traffic and flops into simulated seconds.
    strategy:
        CPS/DPS hot-set manager; ``None`` disables caching (DGL-KE mode).
    cache:
        The hot-embedding tables; required iff ``strategy`` is given.
    cost_dim:
        Dimension the compute model charges per score (defaults to the
        model's actual ``dim``; trainers pass the wire dimension).

    Per-call instruments (the PS channel, telemetry, trace scopes, fault
    injector) are set by :meth:`attach` at the start of every training
    call.
    """

    def __init__(
        self,
        machine: int,
        sampler: EpochSampler,
        server: ParameterServer,
        model: KGEModel,
        loss: Loss,
        network: NetworkModel,
        compute: ComputeModel,
        strategy: HotEmbeddingStrategy | None = None,
        cache: HotEmbeddingCache | None = None,
        cost_dim: int | None = None,
    ) -> None:
        if (strategy is None) != (cache is None):
            raise ValueError("strategy and cache must be provided together")
        self.machine = machine
        self.sampler = sampler
        self.model = model
        self.loss = loss
        self.network = network
        self.compute = compute
        self.strategy = strategy
        self.cache = cache
        self.cost_dim = cost_dim if cost_dim is not None else model.dim
        # Hard-negative cache plumbing (see repro.sampling.cache): when the
        # epoch sampler wraps a CachedNegativeSampler, this worker drives
        # its hotness-ordered refreshes and charges the scoring traffic to
        # the "neg_cache" clock category.  All None/zero when neg_cache=off,
        # so the disabled path is bit-identical to the pre-cache worker.
        neg = getattr(sampler, "negative_sampler", None)
        self.neg_cache = neg if isinstance(neg, CachedNegativeSampler) else None
        #: Every byte this machine moved (its one traffic book; see charge).
        self.comm = CommRecord()
        #: The part of ``comm`` the hard-negative refreshes paid for.
        self.neg_cache_comm = CommRecord()
        #: Candidate triples scored on this worker (training forward passes
        #: plus neg-cache refresh scoring) — the experiment's "scored
        #: candidates" efficiency axis.
        self.scored_candidates = 0
        self.clock = SimClock()
        self.iterations = 0
        self._started = False
        self.attach(server)

    # ----------------------------------------------------------------- attach

    def attach(
        self,
        server: ParameterServer,
        *,
        telemetry: Telemetry | None = None,
        tracer=NULL_TRACER,
        faults=None,
        recovery=None,
    ) -> None:
        """Set this worker's per-call instruments; one not passed is off.

        Builds the one :class:`~repro.faults.rpc.PSChannel` this worker and
        its cache pull from and push to, with ``faults`` (the run's
        injector, or ``None``) as its fault source, and the four trace
        scopes on this machine's clock: ``worker{m}`` (shared with the
        sampler, whose stream folds it traces), ``cache{m}``, ``rpc{m}``
        (the channel's retries) and ``ps@w{m}`` (the server calls).  ``recovery`` is the crash-restart hook restoring this
        machine's PS shard from the last checkpoint.
        """
        machine, clock = self.machine, self.clock
        self.server = PSChannel(
            server,
            machine,
            clock,
            faults,
            trace=tracer.scope(f"rpc{machine}", clock),
            ps_trace=tracer.scope(f"ps@w{machine}", clock),
        )
        self.telemetry = telemetry
        self.trace = tracer.scope(f"worker{machine}", clock)
        self.sampler.trace = self.trace
        self.faults = faults
        self.recovery = recovery
        if self.cache is not None:
            self.cache.server = self.server
            self.cache.trace = tracer.scope(f"cache{machine}", clock)

    # ------------------------------------------------------------------ setup

    def start(self) -> None:
        """Build the initial hot-embedding table (no-op without a cache)."""
        if self._started:
            return
        self._started = True
        if self.strategy is not None and self.cache is not None:
            self._install_hot_set("")

    # ------------------------------------------------------------------- step

    def step(self) -> float:
        """Run one training iteration; returns the batch loss."""
        if not self._started:
            self.start()
        step_index = self.iterations + 1
        # Line the channel's fault windows up with this step.
        self.server.iteration = step_index
        if self.faults is not None and self.faults.crash_due(self.machine, step_index):
            self._crash_restart(step_index)
        # This step's traffic is what ``comm`` gains from here on (crash
        # reinstalls above stay out of the step record).
        local_before, remote_before = self.comm.local_bytes, self.comm.remote_bytes
        # The before/after cache-stat pair exists only for the telemetry row.
        if self.telemetry is not None and self.cache is not None:
            stats_before = self.cache.combined_stats()
            hits_before, misses_before = stats_before.hits, stats_before.misses
        else:
            hits_before = misses_before = 0

        # 1. next batch (and possibly a new hot set to install).
        if self.strategy is not None and self.cache is not None:
            with self.trace.span("sample", "compute"):
                batch, new_hot = self.strategy.next_batch()
                self._charge_overhead()
            if new_hot is not None:
                with self.trace.span("rebuild", "communication") as span:
                    rebuild_comm = self.cache.install(new_hot)
                    self.charge(rebuild_comm)
                    span.set(bytes=rebuild_comm.total_bytes)
                self.trace.count("worker.rebuilds")
            # 2. bounded-staleness synchronization (every P iterations).
            sync_comm = self.cache.tick()
            if sync_comm is not None:
                with self.trace.span("sync", "communication") as span:
                    self.charge(sync_comm)
                    span.set(bytes=sync_comm.total_bytes)
                self.trace.count("worker.syncs")
        else:
            with self.trace.span("sample", "compute"):
                batch = self.sampler.next_batch()

        # 2b. lazy hard-negative cache refresh (NSCaching's index step):
        # every refresh_period steps, score the hottest touched keys'
        # candidate pools against the live model.  Traffic and flops are
        # charged under the dedicated "neg_cache" category — the cache has
        # to pay for its refresh scoring on the same books as everyone.
        if self.neg_cache is not None and self.neg_cache.refresh_due(step_index):
            self._refresh_neg_cache()

        # 3. fetch embedding rows.
        with self.trace.span("fetch", "communication") as span:
            ent_ids = batch.unique_entities()
            rel_ids = batch.unique_relations()
            if self.cache is not None:
                ent_rows, comm_e = self.cache.fetch("entity", ent_ids)
                rel_rows, comm_r = self.cache.fetch("relation", rel_ids)
            else:
                ent_rows, comm_e = self.server.pull("entity", ent_ids)
                rel_rows, comm_r = self.server.pull("relation", rel_ids)
            self.charge(comm_e)
            self.charge(comm_r)
            span.set(bytes=comm_e.total_bytes + comm_r.total_bytes)

        # 4. forward + backward.
        with self.trace.span("compute", "compute") as span:
            grads = compute_batch_gradients(
                self.model, self.loss, batch, ent_ids, ent_rows, rel_ids, rel_rows
            )
            batch_time = self.compute.batch_time(grads.num_scores, self.cost_dim)
            if self.faults is not None:
                # Transient straggler windows slow this machine's compute.
                batch_time *= self.faults.straggler_factor(
                    self.machine, step_index
                )
            self.clock.advance(batch_time, "compute")
            self.scored_candidates += grads.num_scores
            span.set(scores=grads.num_scores, active=grads.active_negatives)

        # 5. local cache update + push everything to the PS.
        with self.trace.span("push", "communication") as span:
            if self.cache is not None:
                self.cache.apply_local_gradients(
                    "entity", grads.entity_ids, grads.entity_grads
                )
                self.cache.apply_local_gradients(
                    "relation", grads.relation_ids, grads.relation_grads
                )
            push_e = self.server.push("entity", grads.entity_ids, grads.entity_grads)
            push_r = self.server.push(
                "relation", grads.relation_ids, grads.relation_grads
            )
            self.charge(push_e)
            self.charge(push_r)
            span.set(bytes=push_e.total_bytes + push_r.total_bytes)

        self.iterations += 1
        self.trace.count("worker.steps")
        self.trace.count("worker.active_negatives", grads.active_negatives)
        step_remote = self.comm.remote_bytes - remote_before
        if step_remote:
            self.trace.count("worker.remote_bytes", step_remote)
        if self.telemetry is not None:
            if self.cache is not None:
                stats = self.cache.combined_stats()
                hits = stats.hits - hits_before
                misses = stats.misses - misses_before
            else:
                hits, misses = 0, 0
            self.telemetry.add(
                IterationRecord(
                    worker=self.machine,
                    iteration=self.iterations,
                    loss=grads.loss,
                    local_bytes=self.comm.local_bytes - local_before,
                    remote_bytes=step_remote,
                    sim_time=self.clock.elapsed,
                    cache_hits=hits,
                    cache_misses=misses,
                )
            )
        return grads.loss

    # -------------------------------------------------------------- neg cache

    def _refresh_neg_cache(self) -> None:
        """Run one hard-negative cache refresh (see repro.sampling.cache).

        Pulls the candidate/anchor rows through this machine's channel,
        charges the pull traffic and the forward-only scoring flops to the
        ``"neg_cache"`` clock category, and lets the sampler rewrite the
        due caches from the scores.
        """
        assert self.neg_cache is not None
        plan = self.neg_cache.plan_refresh()
        if plan is None:
            return
        with self.trace.span("neg_refresh", "neg_cache") as span:
            ent_rows, comm_e = self.server.pull("entity", plan.entity_ids)
            rel_rows, comm_r = self.server.pull("relation", plan.relation_ids)
            self.charge(comm_e, "neg_cache")
            self.charge(comm_r, "neg_cache")
            scored = self.neg_cache.complete_refresh(
                plan, self.model, ent_rows, rel_rows
            )
            self.clock.advance(
                self.compute.batch_time(scored, self.cost_dim, backward=False),
                "neg_cache",
            )
            self.scored_candidates += scored
            span.set(
                bytes=comm_e.total_bytes + comm_r.total_bytes,
                keys=len(plan.codes),
                scores=scored,
            )
        self.trace.count("worker.neg_refreshes")

    # --------------------------------------------------------------- recovery

    def _crash_restart(self, step_index: int) -> None:
        """Simulate this machine crashing and coming back.

        What is lost and what it costs (all charged to this clock):

        1. the PS shard this machine owned rewinds to the last checkpoint
           (``restart_delay + restored_bytes / recovery_bandwidth`` seconds,
           category ``"recovery"``);
        2. the hot-embedding cache is gone — the CPS/DPS setup re-runs
           (prefetch/filter overhead as ``"compute"``) and the hot table is
           re-installed, re-pulling every hot row (``"communication"``).
        """
        assert self.faults is not None
        plan = self.faults.plan
        with self.trace.span("crash_restart", "recovery") as span:
            restored_bytes = 0
            if self.recovery is not None:
                restored_bytes = self.recovery.restore(self.machine)
            downtime = plan.restart_delay + restored_bytes / plan.recovery_bandwidth
            self.clock.advance(downtime, "recovery")
            span.set(restored_bytes=restored_bytes, downtime=downtime)
            if self.cache is not None and self.strategy is not None:
                self.cache.invalidate()
                self._install_hot_set("recover.")
            self.faults.stats.recovery_seconds += downtime
        self.trace.count("worker.recoveries")
        self.faults.record(
            "crash_restart",
            self.machine,
            step_index,
            self.clock.elapsed,
            f"restored {restored_bytes} B",
        )

    # ------------------------------------------------------------------ books

    def charge(self, comm: CommRecord, category: str = "communication") -> None:
        """Book ``comm`` on this machine, exactly once: its bytes into
        :attr:`comm` (and :attr:`neg_cache_comm` for refresh traffic), its
        cost onto this worker's clock under ``category``."""
        self.comm.merge(comm)
        if category == "neg_cache":
            self.neg_cache_comm.merge(comm)
        self.clock.advance(self.network.cost(comm), category)

    # ------------------------------------------------------------------ stats

    def stats(self) -> WorkerStats:
        """Snapshot everything this worker accumulates (see
        :mod:`repro.core.ledger`); read at ``train()`` entry, epoch
        boundaries and exit, never per step."""
        stats = WorkerStats(
            machine=self.machine,
            clock=self.clock.copy(),
            iterations=self.iterations,
            scored_candidates=self.scored_candidates,
            false_negative_leaks=self.sampler.negative_sampler.false_negative_leaks,
            comm=self.comm.copy(),
            neg_cache_comm=self.neg_cache_comm.copy(),
        )
        if self.cache is not None:
            lookups = self.cache.combined_stats()
            stats.cache_hits, stats.cache_misses = lookups.hits, lookups.misses
            stats.staleness_overruns = self.cache.staleness_overruns
            stats.max_staleness_overrun = self.cache.max_staleness_overrun
        if self.neg_cache is not None:
            stats.neg_cache = self.neg_cache.counters()
            stats.neg_cache_keys = self.neg_cache.num_keys
            stats.neg_pending_keys = self.neg_cache.pending_keys
        return stats

    # ---------------------------------------------------------------- private

    def _install_hot_set(self, prefix: str) -> None:
        """Run the strategy's setup and install its hot set, charging both
        (spans ``{prefix}setup`` and ``{prefix}install``)."""
        with self.trace.span(f"{prefix}setup", "compute"):
            hot = self.strategy.setup(self.sampler)
            self._charge_overhead()
        with self.trace.span(f"{prefix}install", "communication") as span:
            comm = self.cache.install(hot)
            self.charge(comm)
            span.set(bytes=comm.total_bytes)

    def _charge_overhead(self) -> None:
        if self.strategy is None:
            return
        items = self.strategy.consume_overhead_items()
        if items:
            self.clock.advance(self.compute.overhead_time(items), "compute")
