"""Cache-focused studies: Fig. 8 (cache size, staleness, entity ratio),
Fig. 9 (staleness convergence curves), Table VI (policy comparison), and
Table VII (heterogeneity-aware filtering ablation)."""

from __future__ import annotations

import numpy as np

from repro.cache.core import (
    CacheCore,
    make_cache,
    replay_membership_trace,
    replay_trace,
)
from repro.cache.hotness import HotnessTable
from repro.cache.optimal import belady_hit_ratio
from repro.experiments.common import (
    ExperimentResult,
    base_config,
    dataset_bundle,
    run_system,
)
from repro.sampling.minibatch import EpochSampler
from repro.sampling.negative import NegativeSampler
from repro.utils.rng import make_rng


def run_fig8a(
    scale: float = 0.1,
    epochs: int = 3,
    seed: int = 0,
    capacities: tuple[int, ...] = (64, 256, 1024, 4096),
) -> ExperimentResult:
    """Fig. 8(a): cache size vs hit ratio and MRR on Freebase-86m.

    Paper shape: hit ratio rises with cache size and saturates; MRR is
    essentially unaffected (staleness error stays small).
    """
    bundle = dataset_bundle("freebase86m-mini", scale=scale, seed=seed)
    rows = []
    series = {"hit_ratio": [], "mrr": []}
    for capacity in capacities:
        config = base_config(epochs=epochs, seed=seed, cache_capacity=capacity)
        result = run_system("hetkg-d", config, bundle, eval_max_queries=100)
        mrr = result.final_metrics.get("mrr", 0.0)
        rows.append([capacity, result.cache_hit_ratio, mrr, result.sim_time])
        series["hit_ratio"].append((float(capacity), result.cache_hit_ratio))
        series["mrr"].append((float(capacity), mrr))
    return ExperimentResult(
        experiment_id="fig8a",
        title="Impact of cache size (HET-KG-D, freebase86m-mini)",
        headers=["cache size", "hit ratio", "MRR", "time (s)"],
        rows=rows,
        series=series,
        notes="paper: hit ratio rises then saturates; MRR ~flat",
    )


def run_fig8b(
    scale: float = 0.1,
    epochs: int = 4,
    seed: int = 0,
    staleness: tuple[int, ...] = (1, 2, 4, 8, 32, 128),
    seeds: int = 2,
) -> ExperimentResult:
    """Fig. 8(b): staleness bound P vs performance and MRR.

    Paper shape: MRR is stable for P <= 8 and degrades beyond; training
    time falls as P grows (fewer synchronizations).

    As in :func:`run_fig9`, the accuracy penalty of staleness needs the
    high-pressure configuration (8 workers, 3x learning rate) and
    seed-averaged MRR to rise above noise at simulation scale; times come
    from the first seed.
    """
    bundle = dataset_bundle("freebase86m-mini", scale=scale, seed=seed)
    rows = []
    series = {"mrr": [], "time": []}
    for p in staleness:
        finals = []
        for s in range(seeds):
            config = base_config(
                epochs=epochs,
                seed=seed + s,
                sync_period=p,
                num_machines=8,
                cache_capacity=4096,
                lr=0.3,
            )
            result_s = run_system(
                "hetkg-c", config, bundle, eval_max_queries=200
            )
            finals.append(result_s.final_metrics.get("mrr", 0.0))
            if s == 0:
                result = result_s
        mrr = float(np.mean(finals))
        rows.append([p, mrr, result.sim_time, result.communication_time])
        series["mrr"].append((float(p), mrr))
        series["time"].append((float(p), result.sim_time))
    return ExperimentResult(
        experiment_id="fig8b",
        title="Impact of bounded staleness P (HET-KG-C, freebase86m-mini)",
        headers=["staleness P", "MRR", "time (s)", "comm time (s)"],
        rows=rows,
        series=series,
        notes="paper: MRR stable for P<=8, lower at large P; time falls with P",
    )


def run_fig8c(
    scale: float = 0.1,
    epochs: int = 2,
    seed: int = 0,
    ratios: tuple[float, ...] = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0),
) -> ExperimentResult:
    """Fig. 8(c): entity share of the cache vs hit ratio.

    Paper shape: hit ratio peaks at a *low* entity ratio (~25%) because
    relation embeddings are accessed far more densely.

    The cache is sized at half the relation vocabulary so the trade-off is
    real: neither side can be fully cached, mirroring the paper's regime
    where Freebase-86m's 14,824 relations exceed the per-worker cache.
    """
    bundle = dataset_bundle("freebase86m-mini", scale=scale, seed=seed)
    capacity = max(16, bundle.graph.num_relations // 2)
    rows = []
    series = {"hit_ratio": []}
    for ratio in ratios:
        config = base_config(
            epochs=epochs, seed=seed, entity_ratio=ratio, cache_capacity=capacity
        )
        result = run_system("hetkg-d", config, bundle, eval_max_queries=1)
        rows.append([ratio, result.cache_hit_ratio, result.sim_time])
        series["hit_ratio"].append((ratio, result.cache_hit_ratio))
    return ExperimentResult(
        experiment_id="fig8c",
        title="Impact of entity ratio in the cache (HET-KG-D)",
        headers=["entity ratio", "hit ratio", "time (s)"],
        rows=rows,
        series=series,
        notes="paper: hit ratio peaks near 25% entities / 75% relations",
    )


def run_fig9(
    scale: float = 0.1,
    epochs: int = 8,
    seed: int = 0,
    staleness: tuple[int, ...] = (1, 128),
    seeds: int = 3,
) -> ExperimentResult:
    """Fig. 9: epoch-MRR curves under tight vs loose consistency.

    Paper shape: staleness 1 converges to a clearly higher MRR than
    staleness 128 (0.67 vs 0.59 on Freebase-86m), motivating the bounded
    synchronization.

    Delayed-gradient damage scales with effective step size, so at
    simulation scale the penalty only emerges under pressure: this runner
    uses 8 workers, a large cache, and a 3x learning rate, and averages
    the final MRR over ``seeds`` seeds (single runs are noise-dominated).
    The curves come from the first seed.
    """
    bundle = dataset_bundle("freebase86m-mini", scale=scale, seed=seed)
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for p in staleness:
        finals = []
        for s in range(seeds):
            config = base_config(
                epochs=epochs,
                seed=seed + s,
                sync_period=p,
                num_machines=8,
                cache_capacity=4096,
                lr=0.3,
            )
            result = run_system(
                "hetkg-c",
                config,
                bundle,
                eval_every=2 if s == 0 else None,
                eval_max_queries=200,
            )
            finals.append(result.final_metrics.get("mrr", 0.0))
            if s == 0:
                epochs_x, mrrs = result.history.epoch_series("mrr")
                series[f"staleness={p}"] = [
                    (float(e), m) for e, m in zip(epochs_x, mrrs)
                ]
        rows.append([p, float(np.mean(finals))])
    return ExperimentResult(
        experiment_id="fig9",
        title=f"Epoch-MRR under tight vs loose consistency (mean of {seeds} seeds)",
        headers=["staleness P", "final MRR (mean)"],
        rows=rows,
        series=series,
        notes=(
            "paper: MRR 0.67 at staleness 1 vs 0.59 at 128; at simulation "
            "scale the penalty is a few percent and needs seed-averaging"
        ),
    )


# --------------------------------------------------------------- Table VI


def _access_trace(
    bundle, config, seed: int
) -> tuple[list[np.ndarray], HotnessTable]:
    """One epoch's per-batch *pull* trace plus structural importance.

    A worker pulls each embedding once per batch regardless of how many
    triples reuse it, so the trace records each batch's unique ids.
    Entities keep their ids; relations are offset by ``num_entities`` so
    both kinds share one key space, mirroring a unified cache.  Importance
    (for the static importance cache) is entity degree / relation
    frequency — what is knowable before training.
    """
    graph = bundle.split.train
    rng = make_rng(seed)
    neg = NegativeSampler(
        num_entities=graph.num_entities,
        num_negatives=config.num_negatives,
        strategy=config.negative_strategy,
        chunk_size=config.negative_chunk,
        seed=rng,
    )
    sampler = EpochSampler(graph, config.batch_size, neg, seed=rng)
    offset = graph.num_entities
    batches = []
    for batch in sampler.epoch():
        batches.append(
            np.concatenate(
                [batch.unique_entities(), batch.unique_relations() + offset]
            )
        )
    importance = HotnessTable.dense(
        np.concatenate([graph.entity_degrees(), graph.relation_counts()])
    )
    return batches, importance


def _importance_cache(capacity: int, importance: HotnessTable) -> CacheCore:
    """Static cache pinning the top-``capacity`` keys by importance (ties:
    lowest id); everything else is never admitted."""
    cache = make_cache("pinned", capacity)
    cache.strategy.install(importance.top(capacity))
    return cache


def run_table6(
    scale: float = 0.05,
    seed: int = 0,
    capacity_fraction: float = 0.1,
) -> ExperimentResult:
    """Table VI: hit ratio of HET-KG's hotness cache vs FIFO/LRU/importance.

    All policies replay the identical one-epoch access trace with the same
    capacity on the same :mod:`repro.cache.core` engine.  The HET-KG column
    is the DPS membership replay (top-k of each prefetched window).  Paper
    shape: HET-KG > importance > LRU > FIFO on every dataset.

    The trace uses the paper's small-batch setting (b = 32) so the cache
    capacity is comfortably larger than one batch's working set — the
    regime in which recency caches retain anything at all.
    """
    config = base_config(seed=seed, batch_size=32, num_negatives=8)
    rows = []
    for dataset in ("fb15k", "wn18", "freebase86m-mini"):
        bundle = dataset_bundle(dataset, scale=scale, seed=seed)
        batches, importance = _access_trace(bundle, config, seed)
        flat = np.concatenate(batches)
        vocabulary = bundle.graph.num_entities + bundle.graph.num_relations
        capacity = max(4, int(vocabulary * capacity_fraction))
        rows.append(
            [
                dataset,
                replay_trace(make_cache("fifo", capacity), flat),
                replay_trace(make_cache("lru", capacity), flat),
                replay_trace(make_cache("lfu", capacity), flat),
                replay_trace(_importance_cache(capacity, importance), flat),
                replay_membership_trace(
                    batches, capacity, "dps", config.dps_window
                ),
            ]
        )
    return ExperimentResult(
        experiment_id="table6",
        title=f"Cache hit ratio comparison (capacity = {capacity_fraction:.0%} of vocab)",
        headers=["dataset", "FIFO", "LRU", "LFU", "importance", "HET-KG"],
        rows=rows,
        notes="paper: HET-KG's prefetch/filter cache beats all simple policies",
    )


def run_policies_extended(
    scale: float = 0.05,
    seed: int = 0,
    capacity_fraction: float = 0.1,
) -> ExperimentResult:
    """Extended policy comparison (beyond Table VI): adaptive policies.

    Adds CLOCK, 2Q, and ARC — the strongest classical *reactive* caches —
    to the Table VI line-up.  The point being stressed: HET-KG's advantage
    is prefetch-based *foresight*; even adaptive reactive policies cannot
    see the upcoming window.
    """
    config = base_config(seed=seed, batch_size=32, num_negatives=8)
    rows = []
    for dataset in ("fb15k", "wn18", "freebase86m-mini"):
        bundle = dataset_bundle(dataset, scale=scale, seed=seed)
        batches, _ = _access_trace(bundle, config, seed)
        flat = np.concatenate(batches)
        vocabulary = bundle.graph.num_entities + bundle.graph.num_relations
        capacity = max(4, int(vocabulary * capacity_fraction))
        rows.append(
            [
                dataset,
                replay_trace(make_cache("clock", capacity), flat),
                replay_trace(make_cache("2q", capacity), flat),
                replay_trace(make_cache("arc", capacity), flat),
                replay_membership_trace(
                    batches, capacity, "dps", config.dps_window
                ),
                belady_hit_ratio(flat.tolist(), capacity),
            ]
        )
    return ExperimentResult(
        experiment_id="ablation-policies-extended",
        title="Adaptive reactive policies vs HET-KG's prefetch cache",
        headers=["dataset", "CLOCK", "2Q", "ARC", "HET-KG", "Belady (OPT)"],
        rows=rows,
        notes=(
            "extension of Table VI: foresight beats adaptivity. Belady's "
            "optimum bounds all *reactive* policies, but a prefetching "
            "cache can exceed it: pre-loading the upcoming window's hot "
            "ids avoids even the cold misses every replacement policy "
            "must take"
        ),
    )


# -------------------------------------------------------------- Table VII


def run_table7(
    scale: float = 0.05, epochs: int = 6, seed: int = 0
) -> ExperimentResult:
    """Table VII: heterogeneity-aware filtering (HET-KG) vs frequency-only
    (HET-KG-N).

    Paper shape: HET-KG-N trains slightly faster (its cache skews to the
    densest relations) but converges to lower accuracy because entity
    update frequencies become uneven.
    """
    rows = []
    for dataset in ("fb15k", "wn18"):
        bundle = dataset_bundle(dataset, scale=scale, seed=seed)
        for label, ratio in (("HET-KG", 0.25), ("HET-KG-N", None)):
            config = base_config(epochs=epochs, seed=seed, entity_ratio=ratio)
            result = run_system("hetkg-d", config, bundle, eval_max_queries=150)
            rows.append(
                [
                    dataset,
                    label,
                    result.final_metrics.get("mrr", 0.0),
                    result.final_metrics.get("hits@1", 0.0),
                    result.final_metrics.get("hits@10", 0.0),
                    result.cache_hit_ratio,
                    result.sim_time,
                ]
            )
    return ExperimentResult(
        experiment_id="table7",
        title="HET-KG with and without heterogeneity-aware filtering",
        headers=["dataset", "system", "MRR", "Hits@1", "Hits@10", "hit ratio", "time (s)"],
        rows=rows,
        notes="paper: HET-KG-N is faster but less accurate",
    )
