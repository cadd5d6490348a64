"""Multi-process serving: N frontend processes over one shared store.

``serve-bench --backend mp`` answers the inference-side scaling question:
how far does replicating the *frontend* (batcher + cache + scorer) go
when every replica reads the **same** embedding tables?  The tables are
placed in shared memory once; each frontend process attaches zero-copy,
builds its own :class:`~repro.serving.frontend.ServingFrontend` (private
cache, private batcher — exactly what independent serving replicas look
like), and replays a round-robin slice of the measured query stream.

Round-robin slicing (``queries[rank::n]``) keeps every slice's arrival
process statistically identical to the full stream's — each replica sees
the same Zipfian mix and the same arrival cadence scaled by ``1/n`` —
which is how a load balancer spreading a stream over replicas behaves.

The parent folds every replica's completion records through
:func:`~repro.serving.metrics.aggregate_results`, the fold one frontend
reports with: latency percentiles are **exact** over all completions
(not averaged from per-replica percentiles), and the simulated duration
runs from the first arrival to the last completion of any replica (they
run concurrently).  Traffic, hits and batches are summed; each clock
category is the busiest replica's.  Wall-clock throughput over the whole
fan-out is reported alongside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.mp.pool import process_map
from repro.mp.shm import SharedArena
from repro.ps.network import CommRecord
from repro.serving.cache import ServingCache, cache_policies
from repro.serving.metrics import ServingReport, aggregate_results


@dataclass
class MPServingResult:
    """Aggregated outcome of a multi-process serve-bench run."""

    report: ServingReport  #: merged cross-replica report (exact percentiles)
    per_frontend: list[ServingReport]  #: each replica's own report
    num_frontends: int
    wall_time_s: float  #: real seconds for the whole fan-out

    @property
    def wall_throughput(self) -> float:
        """Offered queries completed per *real* second across replicas."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.report.num_queries / self.wall_time_s


def serve_mp(
    store,
    measured,
    *,
    num_frontends: int,
    cache_policy: str = "none",
    warmup=None,
    capacity: int = 2,
    max_batch: int = 32,
    max_wait: float = 2e-3,
    byte_scale: float = 25.0,
    label: str | None = None,
    start_method: str | None = None,
) -> MPServingResult:
    """Replay ``measured`` across ``num_frontends`` processes; merge reports.

    Parameters
    ----------
    store:
        A resident-backed :class:`~repro.serving.store.EmbeddingStore`
        (tiered backings hold process-local file handles and cannot be
        shared; the CLI rejects the combination up front).
    measured:
        The measured :class:`~repro.serving.queries.QueryLog` (post
        warmup split).
    cache_policy / warmup / capacity:
        Each replica builds its **own** cache: ``"static"`` profiles the
        shared ``warmup`` log, dynamic policies start cold.  Replicas do
        not share cache state — matching real replicated frontends.
    """
    if cache_policy not in cache_policies():
        raise ValueError(
            f"unknown cache policy {cache_policy!r}; "
            f"choose from {cache_policies()}"
        )
    if cache_policy == "static" and warmup is None:
        raise ValueError("cache_policy='static' needs a warmup log")
    if num_frontends < 1:
        raise ValueError(f"num_frontends must be >= 1, got {num_frontends}")
    kv = store.store
    if kv.tier is not None:
        raise ValueError(
            "tiered stores cannot be served across processes; "
            "use --backing resident with --backend mp"
        )

    queries = list(measured)
    label = label or cache_policy
    with SharedArena() as arena:
        for kind in ("entity", "relation"):
            arena.create(kind, np.asarray(kv.table(kind)))
        specs = [
            {
                "rank": rank,
                "shm_specs": arena.specs(),
                "entity_owner": kv.entity_owner,
                "num_machines": kv.num_machines,
                "model": store.model.name,
                "dim": store.model.dim,
                "queries": queries[rank::num_frontends],
                "cache_policy": cache_policy,
                "warmup": list(warmup) if warmup is not None else [],
                "capacity": capacity,
                "max_batch": max_batch,
                "max_wait": max_wait,
                "byte_scale": byte_scale,
                "label": label,
            }
            for rank in range(num_frontends)
        ]
        wall0 = time.perf_counter()
        outcomes = process_map(
            _serve_replica, specs, jobs=num_frontends, start_method=start_method
        )
        wall_time_s = time.perf_counter() - wall0

    reports = [o["report"] for o in outcomes]
    results = [r for o in outcomes for r in o["results"]]
    hits = sum(o["hits"] for o in outcomes)
    looked_up = hits + sum(o["misses"] for o in outcomes)
    comm = CommRecord()
    for report in reports:
        comm.merge(report.comm)
    batches = sum(r.num_batches for r in reports)
    batched = sum(1 for r in results if r.batch_size)  # rejected and shed: size 0
    merged = aggregate_results(
        label=label,
        results=results,
        hit_ratio=hits / looked_up if looked_up else 0.0,
        comm=comm,
        num_batches=batches,
        mean_batch_size=batched / batches if batches else 0.0,
        compute_time=max(r.compute_time for r in reports),
        communication_time=max(r.communication_time for r in reports),
        idle_time=max(r.idle_time for r in reports),
    )
    return MPServingResult(
        report=merged,
        per_frontend=reports,
        num_frontends=num_frontends,
        wall_time_s=wall_time_s,
    )


def _serve_replica(spec: dict) -> dict:
    """One frontend replica (module-level: pool-picklable).

    Attach, serve, then detach *after* the serving stack's frame — and
    with it every ndarray view into the segments — has died, so the
    close never races live views (same discipline as the training
    worker's entry point).
    """
    import gc

    arrays = SharedArena.attach_all(spec["shm_specs"])
    try:
        return _replica_body(spec, arrays)
    finally:
        gc.collect()
        for array in arrays.values():
            try:
                array.close()
            except BufferError:
                pass  # error path pinned a view; process exit reclaims it


def _replica_body(spec: dict, arrays) -> dict:
    from repro.models.base import get_model
    from repro.ps.kvstore import ShardedKVStore
    from repro.ps.network import NetworkModel
    from repro.serving.batcher import QueryBatcher
    from repro.serving.frontend import ServingFrontend
    from repro.serving.queries import QueryLog
    from repro.serving.store import EmbeddingStore

    store = ShardedKVStore(
        arrays["entity"].view(),
        arrays["relation"].view(),
        spec["entity_owner"],
        spec["num_machines"],
    )
    serving = EmbeddingStore(get_model(spec["model"], spec["dim"]), store)

    cache = ServingCache.from_policy(
        spec["cache_policy"], spec["capacity"], QueryLog(spec["warmup"])
    )
    frontend = ServingFrontend(
        serving,
        batcher=QueryBatcher(
            max_batch=spec["max_batch"], max_wait=spec["max_wait"]
        ),
        cache=cache,
        network=NetworkModel(),
        byte_scale=spec["byte_scale"],
    )
    report = frontend.run(
        spec["queries"], label=f"{spec['label']}#{spec['rank']}"
    )
    return {
        "report": report,
        "results": frontend.results,
        "hits": cache.hits if cache is not None else 0,
        "misses": cache.misses if cache is not None else 0,
    }
