"""Hotness-aware KGE serving: checkpoint -> batched, cached inference.

The training side of this repository reproduces HET-KG's hot-embedding
cache; this package closes the loop to a *served* system.  A trained
checkpoint loads into an :class:`EmbeddingStore`, a :class:`QueryBatcher`
micro-batches incoming link-prediction queries, a :class:`ServingCache`
pins the hot rows a query log predicts (reusing the training filter,
Alg. 2), and a :class:`ServingFrontend` replays Zipfian workloads on the
simulated clock to report throughput, p50/p95/p99 latency, and hit ratio.

Quickstart
----------
>>> from repro import TrainingConfig, generate_dataset, make_trainer, split_triples
>>> from repro.serving import (
...     EmbeddingStore, QueryBatcher, ServingCache, ServingFrontend,
...     WorkloadSpec, ZipfianWorkload,
... )
>>> graph = generate_dataset("fb15k", scale=0.02)
>>> trainer = make_trainer("hetkg-d", TrainingConfig(epochs=1))
>>> _ = trainer.train(split_triples(graph, seed=0).train)
>>> store = EmbeddingStore.from_trainer(trainer)
>>> workload = ZipfianWorkload.from_graph(graph, WorkloadSpec(num_queries=200))
>>> log = workload.generate()
>>> cache = ServingCache.from_query_log(log, capacity=64)
>>> report = ServingFrontend(store, cache=cache).run(log)
>>> report.num_queries
200
"""

from repro.serving.batcher import QueryBatcher
from repro.serving.cache import ServingCache, cache_policies
from repro.serving.frontend import ServingFrontend
from repro.serving.metrics import ServingReport, latency_percentile
from repro.serving.queries import (
    HEAD_PREDICTION,
    QUERY_KINDS,
    SCORE,
    TAIL_PREDICTION,
    Query,
    QueryLog,
    QueryResult,
)
from repro.serving.store import EmbeddingStore
from repro.serving.workload import WorkloadSpec, ZipfianWorkload, zipf_probabilities

__all__ = [
    "EmbeddingStore",
    "HEAD_PREDICTION",
    "QUERY_KINDS",
    "Query",
    "QueryBatcher",
    "QueryLog",
    "QueryResult",
    "SCORE",
    "ServingCache",
    "ServingFrontend",
    "ServingReport",
    "TAIL_PREDICTION",
    "WorkloadSpec",
    "ZipfianWorkload",
    "cache_policies",
    "latency_percentile",
    "zipf_probabilities",
]
