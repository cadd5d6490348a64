"""Per-layer metrics: which callables are wrapped, and what is derived.

Layers carry the module names under ``src/repro``.  Span names reuse the
in-program tracer's (``sample``, ``rebuild``, ``sync``, ``fetch``,
``compute``, ``neg_refresh``, ``tier.*``, ``serve.fetch``, ``serve.compute``)
so a later change can take the spans from the program itself without
renaming a metric.  Times are *self* times (span minus child spans) in ms
per worker-step, or us per query for serving; counts are exact.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np

from spans import SpanRecorder, merge_aggregates

#: Time metric -> span name.  The values of these metrics partition
#: ``worker.step_ms``: they are the self times of everything under a step.
STEP_PARTITION = {
    "worker.self_ms": "step",
    "sampling.next_batch_ms": "sampling.next_batch",
    "sampling.neg_refresh_ms": "neg_refresh",
    "cache.strategy_self_ms": "sample",
    "cache.install_ms": "rebuild",
    "cache.sync_ms": "sync",
    "cache.fetch_self_ms": "fetch",
    "cache.apply_local_ms": "cache.apply_local",
    "ps.pull_ms": "ps.pull",
    "ps.push_ms": "ps.push",
    "optim.update_ms": "optim.update",
    "compute.self_ms": "compute",
    "models.score_ms": "models.score",
    "models.grad_ms": "models.grad",
    "tier.read_ms": "tier.read",
    "tier.write_ms": "tier.write",
    "tier.rebalance_ms": "tier.rebalance",
}
#: The same for serving: these partition the wall time of ``run``.
SERVE_PARTITION = {
    "serving.self_us": "serve.run",
    "serving.cache_lookup_us": "serve.fetch",
    "serving.score_us": "serve.compute",
    "serving.model_score_us": "models.score",
    "serving.batcher_us": "serve.batcher",
}

#: Every per-layer metric and its unit.  Each traced run reports all of
#: them, 0 where the layer does no work in that workload.
LAYER_UNITS = {
    **dict.fromkeys(STEP_PARTITION, "ms"),
    **dict.fromkeys(SERVE_PARTITION, "us"),
    "worker.step_ms": "ms",
    "worker.step_ms_p50": "ms",
    "worker.step_ms_p99": "ms",
    "sampling.neg_refreshes": "count",
    "sampling.scored_candidates": "count",
    "cache.rebuilds": "count",
    "cache.hit_ratio": "ratio",
    "ps.pull_calls": "count",
    "ps.push_calls": "count",
    "ps.rows_pulled": "count",
    "ps.rows_pushed": "count",
    "ps.rows_per_s": "1/s",
    "ps.remote_bytes": "bytes",
    "ps.messages": "count",
    "optim.update_calls": "count",
    "compute.gradients_ms": "ms",
    "tier.hot_hit_ratio": "ratio",
    "tier.promoted_blocks": "count",
    "tier.evicted_blocks": "count",
    "tier.writeback_bytes": "bytes",
    "tier.resident_bytes": "bytes",
    "mp.spawn_join_s": "s",
    "mp.stall_fraction": "ratio",
    "mp.comm_wall_fraction": "ratio",
    "mp.cpu_utilisation": "ratio",
    "mp.speedup_vs_1": "ratio",
    "stream.ingest_ms_per_update": "ms",
    "stream.eval_ms": "ms",
    "stream.updates_applied": "count",
    "stream.cache_rows_invalidated": "count",
    "stream.adaptive_rebuilds": "count",
    "serving.hit_ratio": "ratio",
    "serving.mean_batch": "count",
    "serving.sim_p50_ms": "ms",
    "serving.sim_p99_ms": "ms",
    "partition.partition_s": "s",
    "setup.build_s": "s",
    "setup.start_s": "s",
    "sim.time_s": "s",
    "sim.comm_fraction": "ratio",
    "trace.overhead_pct": "%",
}


# ------------------------------------------------------------------ wrapping


def instrument(rec: SpanRecorder, kind: str, state: dict, span_dir: str) -> None:
    """Wrap the layers' public callables on what the workload built."""
    trainer = state["trainer"]
    rec.wrap(trainer.model, "score", "models.score")
    if kind == "serve":
        frontend = state["frontend"]
        rec.wrap(frontend, "run", "serve.run", root=True, ident=lambda f, *_: (f.machine, 0))
        rec.wrap(frontend.cache, "lookup", "serve.fetch")
        rec.wrap(frontend.store, "rank_candidates", "serve.compute")
        rec.wrap(frontend.store, "score_triples", "serve.compute")
        for method in ("offer", "poll", "drain"):
            rec.wrap(frontend.batcher, method, "serve.batcher")
        return

    import repro.core.worker as worker_module

    rec.wrap(trainer.model, "grad", "models.grad")
    rec.wrap(worker_module, "compute_batch_gradients", "compute")
    server = trainer.server
    rec.wrap(server, "pull", "ps.pull", work=lambda s, table, ids, *_: len(ids))
    rec.wrap(server, "push", "ps.push", work=lambda s, table, ids, *_: len(ids))
    rec.wrap(server.optimizer, "update", "optim.update")
    for worker in trainer.workers:
        rec.wrap(
            worker, "step", "step", root=True,
            ident=lambda wk: (wk.machine, wk.iterations + 1),
        )
        rec.wrap(worker.sampler, "next_batch", "sampling.next_batch")
        rec.wrap(worker.sampler, "prefetch", "sampling.next_batch")
        if worker.strategy is not None:
            rec.wrap(worker.strategy, "next_batch", "sample")
            rec.wrap(worker.cache, "install", "rebuild")
            rec.wrap(worker.cache, "tick", "sync")
            rec.wrap(worker.cache, "fetch", "fetch")
            rec.wrap(worker.cache, "apply_local_gradients", "cache.apply_local")
        if worker.neg_cache is not None:
            rec.wrap(worker.neg_cache, "plan_refresh", "neg_refresh")
            rec.wrap(worker.neg_cache, "complete_refresh", "neg_refresh")
    if server.store.tier is not None:
        for table in server.store.tier.tables.values():
            for method in ("read", "write", "rebalance"):
                rec.wrap(table, method, f"tier.{method}")
    if kind == "stream":
        online = state["online"]
        rec.wrap(online, "train", "stream.train", root=True)
        # The evaluator scores through the shared model; keep that time in
        # stream.eval, so models.score stays a part of the worker step.
        rec.wrap(online.evaluator, "observe", "stream.eval", leaf=True)
        rec.wrap(online.evaluator, "evaluate", "stream.eval", leaf=True)
    if kind == "mp":
        # Forked workers inherit the wrappers and an empty, active
        # recorder; each writes its spans out before it exits.
        import repro.mp.backend as backend

        worker_main = backend.worker_main

        def traced_main(spec, controls):
            try:
                worker_main(spec, controls)
            finally:
                if rec.active:
                    rec.dump(
                        os.path.join(span_dir, f"spans-{spec.rank}.json"),
                        rec.aggregate(),
                        steps=rec.durations("step"),
                    )

        backend.worker_main = traced_main


def collect_spans(rec: SpanRecorder, kind: str, span_dir: str) -> tuple[dict, list]:
    """``(aggregate, step durations)`` of the traced call."""
    if kind != "mp":
        return rec.aggregate(), rec.durations("step")
    parts = []
    for path in sorted(pathlib.Path(span_dir).glob("spans-*.json")):
        parts.append(json.loads(path.read_text()))
        path.unlink()
    steps = [d for part in parts for d in part["steps"]]
    return merge_aggregates([part["aggregate"] for part in parts]), steps


# ---------------------------------------------------------------- derivation


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tier_counters(report: dict) -> dict:
    """Cumulative tier counters summed over the tables (0 when resident)."""
    tables = report["tables"].values() if report.get("backing") == "tiered" else ()
    keys = ("hot_rows", "accesses", "promoted_blocks", "evicted_blocks", "writeback_bytes")
    return {key: sum(t[key] for t in tables) for key in keys}


def result_layers(layers: dict, kind: str, state: dict, outcome, tier_before: dict,
                  raw_wall: float, raw_cpu: float, slowdown: float) -> None:
    """Counts and cost-model outputs read from the run's own result; these
    need no spans and repeat bit-for-bit on the deterministic workloads."""
    if kind == "serve":
        busy = outcome.compute_time + outcome.communication_time
        layers["serving.hit_ratio"] = outcome.hit_ratio
        layers["serving.mean_batch"] = outcome.mean_batch_size
        layers["serving.sim_p50_ms"] = 1e3 * outcome.latency_p50
        layers["serving.sim_p99_ms"] = 1e3 * outcome.latency_p99
        layers["sim.time_s"] = outcome.duration
        layers["sim.comm_fraction"] = ratio(outcome.communication_time, busy)
        return
    trainer = state["trainer"]
    layers["cache.hit_ratio"] = outcome.cache_hit_ratio
    layers["ps.remote_bytes"] = outcome.comm_totals.remote_bytes
    layers["ps.messages"] = outcome.comm_totals.total_messages
    layers["sampling.neg_refreshes"] = outcome.neg_cache_stats.get("refreshes", 0)
    layers["sim.time_s"] = outcome.sim_time
    layers["sim.comm_fraction"] = ratio(outcome.communication_time, outcome.sim_time)
    report = trainer.server.store.memory_report()
    tier = tier_counters(report)
    delta = {key: tier[key] - tier_before[key] for key in tier}
    layers["tier.hot_hit_ratio"] = ratio(delta["hot_rows"], delta["accesses"])
    layers["tier.promoted_blocks"] = delta["promoted_blocks"]
    layers["tier.evicted_blocks"] = delta["evicted_blocks"]
    layers["tier.writeback_bytes"] = delta["writeback_bytes"]
    if report["backing"] == "tiered":
        layers["tier.resident_bytes"] = report["resident_bytes"]
    if kind == "mp":
        rows = outcome.worker_wall.values()
        walls = sum(row["wall_s"] for row in rows)
        layers["sampling.scored_candidates"] = outcome.scored_candidates
        slowest = max(row["wall_s"] for row in rows)
        layers["mp.spawn_join_s"] = (raw_wall - slowest) / slowdown
        layers["mp.stall_fraction"] = ratio(sum(r["stall_s"] for r in rows), walls)
        layers["mp.comm_wall_fraction"] = ratio(
            sum(r["comm_wall_s"] for r in rows), walls
        )
        layers["mp.cpu_utilisation"] = ratio(raw_cpu, raw_wall * len(rows))
    else:
        layers["sampling.scored_candidates"] = sum(
            worker.scored_candidates for worker in trainer.workers
        )
    if kind == "stream":
        layers["stream.updates_applied"] = outcome.updates_applied
        layers["stream.cache_rows_invalidated"] = outcome.cache_rows_invalidated
        layers["stream.adaptive_rebuilds"] = outcome.adaptive_rebuilds


def span_layers(layers: dict, kind: str, aggregate: dict, steps: list, ops: int,
                raw_wall: float, slowdown: float, updates_applied: int) -> None:
    """Times and call counts derived from the traced run's spans; times are
    divided by the machine's ``slowdown`` during the run (reference.py)."""

    def of(name: str, key: str) -> float:
        return aggregate.get(name, {}).get(key, 0)

    if kind == "serve":
        for metric, span in SERVE_PARTITION.items():
            layers[metric] = 1e6 * of(span, "self_s") / slowdown / ops
        return
    ms = 1e3 / slowdown
    for metric, span in STEP_PARTITION.items():
        layers[metric] = ms * of(span, "self_s") / ops
    layers["worker.step_ms"] = ms * of("step", "total_s") / ops
    if steps:
        p50, p99 = np.percentile(steps, [50, 99])
        layers["worker.step_ms_p50"] = ms * float(p50)
        layers["worker.step_ms_p99"] = ms * float(p99)
    layers["compute.gradients_ms"] = ms * of("compute", "total_s") / ops
    layers["cache.rebuilds"] = of("rebuild", "count")
    layers["ps.pull_calls"] = of("ps.pull", "count")
    layers["ps.push_calls"] = of("ps.push", "count")
    layers["ps.rows_pulled"] = of("ps.pull", "work")
    layers["ps.rows_pushed"] = of("ps.push", "work")
    layers["ps.rows_per_s"] = (
        (of("ps.pull", "work") + of("ps.push", "work")) * slowdown / raw_wall
    )
    layers["optim.update_calls"] = of("optim.update", "count")
    if kind == "stream":
        layers["stream.ingest_ms_per_update"] = ratio(
            ms * of("stream.train", "self_s"), updates_applied
        )
        layers["stream.eval_ms"] = ms * of("stream.eval", "self_s") / ops
