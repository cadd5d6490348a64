"""Tests for the per-machine Worker loop."""

import numpy as np
import pytest

from repro.cache.strategies import DynamicPartialStale
from repro.cache.sync import HotEmbeddingCache
from repro.core.worker import Worker
from repro.models import TransE
from repro.models.losses import MarginRankingLoss
from repro.optim.adagrad import SparseAdagrad
from repro.partition.random_partition import RandomPartitioner
from repro.ps.kvstore import ShardedKVStore
from repro.ps.network import ComputeModel, NetworkModel
from repro.ps.server import ParameterServer
from repro.sampling.minibatch import EpochSampler
from repro.sampling.negative import NegativeSampler


@pytest.fixture
def world(small_graph):
    model = TransE(8)
    partition = RandomPartitioner(seed=0).partition(small_graph, 2)
    store = ShardedKVStore(
        model.init_entities(small_graph.num_entities, 0),
        model.init_relations(small_graph.num_relations, 0),
        partition.entity_part,
        2,
    )
    server = ParameterServer(store, SparseAdagrad(lr=0.1))
    network = NetworkModel()
    compute = ComputeModel()
    return small_graph, model, server, network, compute


def make_worker(world, cached: bool, machine=0):
    graph, model, server, network, compute = world
    neg = NegativeSampler(graph.num_entities, 4, seed=machine)
    sampler = EpochSampler(graph, 16, neg, seed=machine)
    strategy = cache = None
    if cached:
        strategy = DynamicPartialStale(capacity=64, window=4)
        cache = HotEmbeddingCache(
            64, 64, model.entity_dim, model.relation_dim,
            sync_period=4, local_lr=0.1,
        )
    return Worker(
        machine, sampler, server, model, MarginRankingLoss(), network, compute,
        strategy=strategy, cache=cache,
    )


class TestWorkerUncached:
    def test_step_returns_loss_and_advances_clock(self, world):
        worker = make_worker(world, cached=False)
        loss = worker.step()
        assert loss >= 0.0
        assert worker.clock.elapsed > 0
        assert worker.clock.category("compute") > 0
        assert worker.clock.category("communication") > 0
        assert worker.iterations == 1

    def test_step_updates_server_state(self, world):
        graph, model, server, *_ = world
        before = server.store.table("entity").copy()
        make_worker(world, cached=False).step()
        assert not np.array_equal(before, server.store.table("entity"))

    def test_start_noop_without_cache(self, world):
        worker = make_worker(world, cached=False)
        worker.start()
        assert worker.clock.elapsed == 0.0


class TestWorkerCached:
    def test_start_installs_hot_set(self, world):
        worker = make_worker(world, cached=True)
        worker.start()
        assert len(worker.cache.cached_ids("entity")) > 0
        assert worker.clock.elapsed > 0  # install traffic + prefetch overhead

    def test_start_idempotent(self, world):
        worker = make_worker(world, cached=True)
        worker.start()
        elapsed = worker.clock.elapsed
        worker.start()
        assert worker.clock.elapsed == elapsed

    def test_steps_hit_cache(self, world):
        worker = make_worker(world, cached=True)
        for _ in range(6):
            worker.step()
        assert worker.stats().cache_hit_ratio > 0.0

    def test_hit_ratio_zero_without_cache(self, world):
        worker = make_worker(world, cached=False)
        worker.step()
        assert worker.stats().cache_hit_ratio == 0.0

    def test_mismatched_strategy_cache_rejected(self, world):
        graph, model, server, network, compute = world
        neg = NegativeSampler(graph.num_entities, 4, seed=0)
        sampler = EpochSampler(graph, 16, neg, seed=0)
        with pytest.raises(ValueError, match="together"):
            Worker(
                0, sampler, server, model, MarginRankingLoss(), network, compute,
                strategy=DynamicPartialStale(capacity=8), cache=None,
            )

    def test_cached_worker_communicates_less_per_step(self, world):
        """With a cache big enough to hold the working set and a long sync
        period, the cached worker's steady-state pull traffic must drop
        below the uncached worker's."""
        graph, model, server, network, compute = world
        neg = NegativeSampler(graph.num_entities, 4, seed=0)
        sampler = EpochSampler(graph, 16, neg, seed=0)
        strategy = DynamicPartialStale(capacity=4096, window=8)
        cache = HotEmbeddingCache(
            4096, 4096, model.entity_dim, model.relation_dim,
            sync_period=64, local_lr=0.1,
        )
        cached = Worker(
            0, sampler, server, model, MarginRankingLoss(), network, compute,
            strategy=strategy, cache=cache,
        )
        plain = make_worker(world, cached=False, machine=0)
        cached.start()
        warm_start = None
        for i in range(8):
            cached.step()
            plain.step()
            if i == 3:
                warm_start = (
                    cached.clock.category("communication"),
                    plain.clock.category("communication"),
                )
        cached_delta = cached.clock.category("communication") - warm_start[0]
        plain_delta = plain.clock.category("communication") - warm_start[1]
        assert cached_delta < plain_delta

    def test_cost_dim_scales_compute(self, world):
        a = make_worker(world, cached=False)
        b = make_worker(world, cached=False)
        b.cost_dim = a.cost_dim * 10
        a.step()
        b.step()
        assert b.clock.category("compute") > 5 * a.clock.category("compute")
