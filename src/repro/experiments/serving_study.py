"""Serving studies: inference-side cache and batcher sweeps.

The paper's cache accelerates training; these experiments ask the
follow-on systems question: *how much does the same hotness machinery buy
at inference time?*  A small model is trained, its checkpointed tables
are served through :mod:`repro.serving`, and a calibrated Zipfian query
stream is replayed under different serving-cache and micro-batcher
configurations.

Two registered experiments:

* ``serving-cache``   — hot-set size sweep (static CPS-style pinning vs
  reactive LRU vs no cache): hit ratio, tail latency, remote traffic.
* ``serving-batcher`` — ``max_batch`` sweep at fixed cache: the
  throughput / tail-latency trade-off of micro-batching.
"""

from __future__ import annotations

from repro.experiments.common import (
    DatasetBundle,
    ExperimentResult,
    base_config,
    dataset_bundle,
)
from repro.core.trainer import make_trainer
from repro.ps.network import NetworkModel
from repro.serving.batcher import QueryBatcher
from repro.serving.cache import ServingCache
from repro.serving.frontend import ServingFrontend
from repro.serving.metrics import ServingReport
from repro.serving.queries import QueryLog
from repro.serving.store import EmbeddingStore
from repro.serving.workload import WorkloadSpec, ZipfianWorkload

#: Fraction of the generated stream used to profile the static hot set.
WARMUP_FRACTION = 0.25


def trained_store(
    dataset: str = "fb15k",
    scale: float = 0.05,
    seed: int = 0,
    epochs: int = 2,
    bundle: DatasetBundle | None = None,
):
    """Train HET-KG-D briefly -> ``(store, bundle, trainer)``.

    The serving store wraps the trainer's tables and shares its METIS
    ownership map, so serving-side shard locality matches the training
    partition.  The trainer is what continuous deployment snapshots fresh
    checkpoints and hot membership from.
    """
    if bundle is None:
        bundle = dataset_bundle(dataset, scale=scale, seed=seed)
    config = base_config(epochs=epochs, seed=seed)
    trainer = make_trainer("hetkg-d", config)
    trainer.train(bundle.split.train)
    return EmbeddingStore.from_trainer(trainer), bundle, trainer


def split_warmup(log: QueryLog, fraction: float = WARMUP_FRACTION) -> tuple[QueryLog, QueryLog]:
    """Split a stream into (warmup-for-profiling, measured) prefix/suffix."""
    cut = max(1, int(len(log) * fraction))
    return QueryLog(log.queries[:cut]), QueryLog(log.queries[cut:])


def serve_once(
    store: EmbeddingStore,
    log: QueryLog,
    cache: ServingCache | None,
    max_batch: int = 32,
    max_wait: float = 2e-3,
    byte_scale: float = 25.0,
    label: str | None = None,
) -> ServingReport:
    """Replay ``log`` through a fresh frontend and return its report.

    ``byte_scale`` defaults to the trainer's wire-dimension correction
    (400 / 16), charging traffic at the paper's embedding width.
    """
    frontend = ServingFrontend(
        store,
        batcher=QueryBatcher(max_batch=max_batch, max_wait=max_wait),
        cache=cache,
        network=NetworkModel(),
        byte_scale=byte_scale,
    )
    return frontend.run(log.queries, label=label)


def run_serving_cache(
    scale: float = 0.05,
    seed: int = 0,
    epochs: int = 2,
    num_queries: int = 4000,
    fractions: tuple[float, ...] = (0.02, 0.05, 0.1, 0.2),
) -> ExperimentResult:
    """serving-cache: hot-set size sweep for the inference cache.

    For each hot-set fraction the static cache is profiled on a warmup
    prefix of the stream and measured on the suffix; an LRU cache of the
    same capacity and the cache-off baseline bracket it.
    """
    store, bundle, _ = trained_store(scale=scale, seed=seed, epochs=epochs)
    spec = WorkloadSpec(num_queries=num_queries, seed=seed + 11)
    workload = ZipfianWorkload.from_graph(bundle.graph, spec)
    warmup, measured = split_warmup(workload.generate())

    rows = [serve_once(store, measured, None, label="no-cache").as_row()]
    series: dict[str, list[tuple[float, float]]] = {"static": [], "lru": []}
    for fraction in fractions:
        capacity = max(
            2, int(fraction * (store.num_entities + store.num_relations))
        )
        static = ServingCache.from_query_log(warmup, capacity)
        static.label = f"static@{fraction:.0%}"
        report = serve_once(store, measured, static, label=static.label)
        rows.append(report.as_row())
        series["static"].append((fraction, report.hit_ratio))

        lru = ServingCache.dynamic(capacity, policy="lru")
        lru.label = f"lru@{fraction:.0%}"
        lru_report = serve_once(store, measured, lru, label=lru.label)
        rows.append(lru_report.as_row())
        series["lru"].append((fraction, lru_report.hit_ratio))
    return ExperimentResult(
        experiment_id="serving-cache",
        title="Inference cache sweep (fb15k, Zipfian stream)",
        headers=ServingReport.headers(),
        rows=rows,
        series=series,
        notes=(
            "hot-set pinning from a warmup query log (Alg. 2 reused at "
            "inference); larger hot sets raise hit ratio and cut tail "
            "latency and remote traffic"
        ),
    )


def run_serving_batcher(
    scale: float = 0.05,
    seed: int = 0,
    epochs: int = 2,
    num_queries: int = 4000,
    batch_sizes: tuple[int, ...] = (1, 4, 16, 64),
    max_wait: float = 2e-3,
) -> ExperimentResult:
    """serving-batcher: micro-batch size sweep at a fixed 10% hot set.

    ``max_batch=1`` disables batching (every query dispatches alone);
    larger batches amortise per-message latency into higher throughput at
    the cost of queueing delay in the tail.
    """
    store, bundle, _ = trained_store(scale=scale, seed=seed, epochs=epochs)
    spec = WorkloadSpec(num_queries=num_queries, seed=seed + 13)
    workload = ZipfianWorkload.from_graph(bundle.graph, spec)
    warmup, measured = split_warmup(workload.generate())
    capacity = max(2, int(0.1 * (store.num_entities + store.num_relations)))

    rows = []
    series: dict[str, list[tuple[float, float]]] = {"qps": [], "p99_ms": []}
    for max_batch in batch_sizes:
        cache = ServingCache.from_query_log(warmup, capacity)
        report = serve_once(
            store,
            measured,
            cache,
            max_batch=max_batch,
            max_wait=max_wait,
            label=f"batch={max_batch}",
        )
        rows.append(report.as_row())
        series["qps"].append((float(max_batch), report.throughput))
        series["p99_ms"].append((float(max_batch), report.latency_p99 * 1e3))
    return ExperimentResult(
        experiment_id="serving-batcher",
        title="Micro-batcher sweep (fb15k, 10% hot set)",
        headers=ServingReport.headers(),
        rows=rows,
        series=series,
        notes=(
            "max_batch trades queueing latency for per-message "
            "amortisation; max_wait bounds the straggler tail"
        ),
    )
