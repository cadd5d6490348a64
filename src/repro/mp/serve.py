"""Multi-process serving: N frontend processes over one shared store.

``serve-bench --backend mp`` answers the inference-side scaling question:
how far does replicating the *frontend* (batcher + cache + scorer) go
when every replica reads the **same** embedding tables?  The tables are
placed in shared memory once and the parent's
:class:`~repro.serving.frontend.ServingFrontend` is pickled around them
(:meth:`~repro.mp.shm.SharedArena.dumps`); each frontend process
unpickles its own copy — the tables attached zero-copy, the cache,
batcher and clock private, exactly what independent serving replicas
look like — and replays a round-robin slice of the measured query
stream.

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

from repro.mp.pool import process_map
from repro.mp.shm import SharedArena
from repro.ps.kvstore import ENTITY, RELATION
from repro.ps.network import CommRecord
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
    frontend,
    measured,
    *,
    num_frontends: int,
    start_method: str | None = None,
) -> MPServingResult:
    """Replay ``measured`` across ``num_frontends`` copies of ``frontend``;
    merge their reports.

    Parameters
    ----------
    frontend:
        A :class:`~repro.serving.frontend.ServingFrontend` over a
        resident-backed store (tiered backings hold process-local file
        handles and cannot be shared; the CLI rejects the combination up
        front).  Each replica runs its own copy: a warmed static cache
        arrives warm, a dynamic one as ``frontend`` holds it, and
        replicas do not share cache state — matching real replicated
        frontends.  ``frontend`` itself serves nothing.
    measured:
        The measured :class:`~repro.serving.queries.QueryLog` (post
        warmup split).
    """
    if num_frontends < 1:
        raise ValueError(f"num_frontends must be >= 1, got {num_frontends}")
    kv = frontend.store.store
    if kv.tier is not None:
        raise ValueError(
            "tiered stores cannot be served across processes; "
            "use --backing resident with --backend mp"
        )

    queries = list(measured)
    label = frontend.cache.label if frontend.cache is not None else "no-cache"
    private = {kind: kv.table(kind) for kind in (ENTITY, RELATION)}
    with SharedArena() as arena:
        # Replicas only read the tables: they are shared for the pickle
        # alone, and the parent's store gets its private arrays back.
        try:
            for kind, table in private.items():
                kv.rebind(kind, arena.share(table))
            world = arena.dumps(frontend)
        finally:
            for kind, table in private.items():
                kv.rebind(kind, table)
        specs = [
            (world, queries[rank::num_frontends], f"{label}#{rank}")
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


def _serve_replica(spec: tuple) -> dict:
    """One frontend replica (module-level: pool-picklable).

    Unpickle, serve, then detach *after* the frontend's frame — and with
    it every ndarray view into the segments — has died, so the close never
    races live views (same discipline as the training worker's entry
    point).
    """
    import gc

    attached: list = []
    try:
        return _replica_body(spec, attached)
    finally:
        gc.collect()
        for array in attached:
            try:
                array.close()
            except BufferError:
                pass  # error path pinned a view; process exit reclaims it


def _replica_body(spec: tuple, attached: list) -> dict:
    world, queries, label = spec
    frontend = SharedArena.loads(world, attached)
    report = frontend.run(queries, label=label)
    cache = frontend.cache
    return {
        "report": report,
        "results": frontend.results,
        "hits": cache.hits if cache is not None else 0,
        "misses": cache.misses if cache is not None else 0,
    }
