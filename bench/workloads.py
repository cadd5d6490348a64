"""The seven workloads, and the child process that runs one of them once.

``python bench/workloads.py NAME --seed S --factor F [--traced]`` is what
``bench/run.py`` starts for every run: a fresh interpreter (so peak RSS and
lazy imports are per workload) that generates the inputs from the seed,
sets the system up three times (keeping the third), runs the timed call
once, checks the outputs and prints one JSON object as its last line.

Work is fixed in steps/queries, never in seconds, so the outputs of a run
repeat exactly and can be pinned in ``expected.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

from layers import (  # noqa: E402
    LAYER_UNITS,
    collect_spans,
    instrument,
    result_layers,
    span_layers,
    tier_counters,
)
from repro.core.config import TrainingConfig  # noqa: E402
from repro.core.trainer import make_trainer  # noqa: E402
from repro.kg.datasets import generate_dataset  # noqa: E402
from repro.kg.splits import split_triples  # noqa: E402
from reference import MachineSpeed, pin_to_one_cpu  # noqa: E402
from repro.mp.shm import shm_segments  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: Training shape shared by every workload unless it overrides a field.
SHAPE = dict(
    model="transe",
    dim=32,
    batch_size=128,
    num_negatives=16,
    negative_strategy="chunked",
    num_machines=4,
    partitioner="metis",
    cache_capacity=1024,
    sync_period=8,
    dps_window=32,
)

#: ``--quick`` divides every size (dataset scale, epochs, queries) by this.
QUICK_DIVISOR = 8


@dataclass(frozen=True)
class Workload:
    """One workload.  ``size`` is epochs (queries for ``serve``) at scale
    factor 1; ``BENCHMARK.json`` and the README say why each one exists."""

    name: str
    kind: str  # "train" | "mp" | "stream" | "serve"
    system: str
    size: int
    dataset: str = "fb15k"
    dataset_scale: float = 0.2
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_hetkg_d", "train", "hetkg-d", 3),
        Workload("train_dglke", "train", "dglke", 3),
        Workload(
            "train_tiered", "train", "hetkg-d", 2, dataset="wn18", dataset_scale=1.0,
            overrides=dict(backing="tiered", memory_budget="2MB", tier_cold_codec="int8"),
        ),
        Workload("train_mp_async", "mp", "hetkg-d", 6, overrides=dict(num_machines=2)),
        Workload("train_negcache", "train", "hetkg-d", 1, overrides=dict(neg_cache="nscaching")),
        Workload("stream_rotation", "stream", "hetkg-a", 2),
        Workload("serve_zipf", "serve", "hetkg-d", 110_000),
    )
}


# ------------------------------------------------------------------- inputs


def make_inputs(w: Workload, seed: int, factor: float, quick: bool) -> dict:
    """Everything the program is handed: graph, config, query log.

    ``seed`` feeds the dataset generator, the split and the training
    config; the query log uses ``seed + 11`` and the event stream
    ``seed + 17``.
    """
    divisor = QUICK_DIVISOR if quick else 1
    graph = generate_dataset(w.dataset, scale=w.dataset_scale / divisor, seed=seed)
    train = split_triples(graph, seed=seed).train
    size = max(1, round(w.size * factor / divisor))
    config = TrainingConfig(
        **{**SHAPE, **w.overrides},
        epochs=1 if w.kind == "serve" else size,
        seed=seed,
    )
    inputs = {"train": train, "config": config, "size": size}
    if w.kind == "serve":
        from repro.serving.workload import WorkloadSpec, ZipfianWorkload

        spec = WorkloadSpec(
            num_queries=size,
            arrival_rate=2000.0,
            zipf_exponent=1.1,
            num_candidates=64,
            seed=seed + 11,
        )
        inputs["queries"] = ZipfianWorkload.from_graph(train, spec).generate().queries
    return inputs


def make_online(trainer, inputs: dict, seed: int):
    """The online trainer over an event stream sized from the trainer's
    real step budget.

    ``cli._stream`` sizes the stream from ``epochs * ceil(triples / batch)``,
    which ignores that the triples are split over ``num_machines`` workers,
    so most of its updates fall after the last step and never apply.
    """
    from repro.stream import OnlineTrainer, make_stream

    steps = inputs["config"].epochs * max(
        worker.sampler.batches_per_epoch for worker in trainer.workers
    )
    stream = make_stream(
        "rotation", inputs["train"], steps=steps, seed=seed + 17,
        interval=2, inserts_per_update=64,
    )
    return OnlineTrainer(trainer, stream, eval_every=64)


# -------------------------------------------------------------------- set-up


def build(w: Workload, inputs: dict) -> dict:
    """Generated inputs -> ready to run; this is what ``setup_s`` times."""
    t0 = perf_counter()
    trainer = make_trainer(w.system, inputs["config"])
    trainer.setup(inputs["train"])
    t1 = perf_counter()
    state = {"trainer": trainer}
    if w.kind == "serve":
        from repro.serving.batcher import QueryBatcher
        from repro.serving.cache import ServingCache
        from repro.serving.frontend import ServingFrontend
        from repro.serving.store import EmbeddingStore

        store = EmbeddingStore.from_trainer(trainer)
        rows = store.num_entities + store.num_relations
        state["frontend"] = ServingFrontend(
            store,
            batcher=QueryBatcher(max_batch=32),
            cache=ServingCache.dynamic(max(1, round(0.05 * rows)), policy="lru"),
            byte_scale=inputs["config"].byte_scale,
        )
    elif w.kind != "mp":
        # mp workers build and start inside their own processes, so for
        # that workload Worker.start() falls in the timed call instead.
        for worker in trainer.workers:
            worker.start()
    state["build_s"] = t1 - t0
    state["start_s"] = perf_counter() - t1
    return state


# ------------------------------------------------------------ output checks


def pinned_fingerprint(name: str, seed: int, factor: float, quick: bool):
    """The expected outputs, when this exact run has been pinned."""
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    if quick or seed != expected["seed"] or factor != 1.0:
        return None
    return expected["fingerprints"].get(name)


def check_training(
    w: Workload, state: dict, outcome, ops: int, failures: list, warnings: list
):
    """Sanity checks on a training outcome -> (failed ops, fingerprint)."""
    trainer = state["trainer"]
    failed = 0
    if w.kind == "mp":
        steps_run = sum(row["steps"] for row in outcome.worker_wall.values())
    else:
        steps_run = sum(worker.iterations for worker in trainer.workers)
    if steps_run != ops:
        failures.append(f"{steps_run} steps ran, {ops} planned")
        failed += abs(ops - steps_run)
    if w.kind == "stream":
        losses = [outcome.mean_loss]
        generated = len(state["online"].stream.updates)
        if outcome.updates_applied != generated:
            failures.append(
                f"{outcome.updates_applied} of {generated} stream updates applied"
            )
            failed = ops
    else:
        losses = [point.loss for point in outcome.history.points]
    bad = sum(not math.isfinite(loss) for loss in losses)
    if bad:
        failures.append(f"{bad} of {len(losses)} epoch losses are not finite")
        failed += ops * bad // len(losses)
    elif len(losses) > 1 and not losses[-1] < losses[0]:
        text = f"loss did not fall: {losses[0]} -> {losses[-1]}"
        if w.kind == "mp":
            # About 1 async run in 15 diverges at this shape: a lost update
            # on the shared AdaGrad accumulator (README, "found while
            # building").  It costs the same time per step, so it is
            # recorded but not counted, or this workload could not be used.
            warnings.append(text)
        else:
            failures.append(text)
            failed = ops
    if w.kind == "mp":
        return failed, {}  # hogwild: outputs differ from run to run
    fingerprint = {
        "loss": float(losses[-1]).hex(),
        "remote_bytes": int(outcome.comm_totals.remote_bytes),
        "messages": int(outcome.comm_totals.total_messages),
        "hit_ratio": float(outcome.cache_hit_ratio).hex(),
        "sim_time": float(outcome.sim_time).hex(),
    }
    if w.kind == "stream":
        fingerprint["updates_applied"] = int(outcome.updates_applied)
    return failed, fingerprint


def check_serving(state: dict, report, ops: int, failures: list):
    """Every query admitted and answered -> (failed ops, fingerprint)."""
    results = sorted(state["frontend"].results, key=lambda r: r.qid)
    unanswered = sum(r.outcome != "admitted" or r.answer is None for r in results)
    failed = unanswered + abs(ops - len(results))
    if failed:
        failures.append(f"{unanswered} of {len(results)} queries unanswered, {ops} sent")
    digest = hashlib.sha256()
    for result in results:
        if result.answer is not None:
            digest.update(np.asarray(result.answer).tobytes())
    fingerprint = {
        "answers": digest.hexdigest(),
        "sim_p99": float(report.latency_p99).hex(),
    }
    return failed, fingerprint


# ----------------------------------------------------------------- the run


def cpu_seconds() -> float:
    """User + system CPU of this process and of the children it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed_call(w: Workload, state: dict, inputs: dict):
    trainer = state["trainer"]
    if w.kind == "train":
        return trainer.train(inputs["train"])
    if w.kind == "mp":
        return trainer.train_mp(inputs["train"], schedule="async", start_method="fork")
    if w.kind == "stream":
        return state["online"].train(inputs["train"])
    return state["frontend"].run(inputs["queries"])


def run_once(
    name: str,
    seed: int,
    factor: float = 1.0,
    quick: bool = False,
    traced: bool = False,
    trace_out: str | None = None,
    dump_spans: bool = False,
) -> dict:
    """Run workload ``name`` once in this process; returns the run record."""
    w = WORKLOADS[name]
    span_dir = os.environ.get("TMPDIR", ".")
    segments_before = set(shm_segments())
    # The mp workload needs both cores; everything else is one process.
    pinned_cpu = None if w.kind == "mp" else pin_to_one_cpu()
    inputs = make_inputs(w, seed, factor, quick)

    # Every time below is divided by how much slower than nominal the
    # machine ran while it was taken: see reference.py.
    speed = MachineSpeed()
    speed.start()
    rec = SpanRecorder()
    if traced:
        from repro.partition.metis import MetisPartitioner

        rec.wrap(MetisPartitioner, "partition", "partition", root=True)

    # Fastest of three consecutive builds; the third is kept and run, so
    # graph-level memoised indexes are warm, as in a long-lived process.
    raw_setups, setups = [], []
    for attempt in range(3):
        gc.collect()
        rec.active = traced and attempt == 2
        t0 = perf_counter()
        state = build(w, inputs)
        t1 = perf_counter()
        rec.active = False
        setup_slowdown = speed.slowdown(t0, t1)
        raw_setups.append(t1 - t0)
        setups.append((t1 - t0) / setup_slowdown)
        if attempt < 2:
            state["trainer"].server.store.close()  # tier scratch files
    trainer = state["trainer"]
    if w.kind == "stream":
        state["online"] = make_online(trainer, inputs, seed)
    if w.kind == "serve":
        ops = inputs["size"]
    else:
        ops = len(trainer.workers) * inputs["size"] * max(
            worker.sampler.batches_per_epoch for worker in trainer.workers
        )
    partition_s = rec.aggregate().get("partition", {}).get("total_s", 0.0)
    if traced:
        instrument(rec, w.kind, state, span_dir)

    store = trainer.server.store
    tier_before = tier_counters(store.memory_report())
    failures: list[str] = []
    warnings: list[str] = []
    outcome = None
    gc.collect()
    cpu0 = cpu_seconds()
    rec.active = traced
    t0 = perf_counter()
    try:
        outcome = timed_call(w, state, inputs)
    except Exception:
        # A run that dies is reported as failed operations with the
        # reason, and still goes through the leak checks below.
        failures.append("timed call raised:\n" + traceback.format_exc())
    raw_wall = perf_counter() - t0
    rec.active = False
    raw_cpu = cpu_seconds() - cpu0
    slowdown = speed.slowdown(t0, t0 + raw_wall)
    wall, cpu = raw_wall / slowdown, raw_cpu / slowdown
    peak_rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )

    failed = ops
    fingerprint: dict = {}
    layers = dict.fromkeys(LAYER_UNITS, 0.0)
    if outcome is not None:
        if w.kind == "serve":
            failed, fingerprint = check_serving(state, outcome, ops, failures)
        else:
            failed, fingerprint = check_training(
                w, state, outcome, ops, failures, warnings
            )
        result_layers(
            layers, w.kind, state, outcome, tier_before, raw_wall, raw_cpu, slowdown
        )
    if traced and outcome is not None:
        aggregate, steps = collect_spans(rec, w.kind, span_dir)
        span_layers(
            layers, w.kind, aggregate, steps, ops, raw_wall, slowdown,
            getattr(outcome, "updates_applied", 0),
        )
        layers["partition.partition_s"] = partition_s / setup_slowdown
        layers["setup.build_s"] = (state["build_s"] - partition_s) / setup_slowdown
        layers["setup.start_s"] = state["start_s"] / setup_slowdown
        if trace_out:
            rec.dump(
                trace_out, aggregate, raw=dump_spans, workload=name, seed=seed,
                raw_wall_s=raw_wall, slowdown=slowdown, ops=ops,
            )

    store.close()
    leaked = sorted(set(shm_segments()) - segments_before)
    if leaked:
        failures.append(f"leaked shared-memory segments: {leaked}")
        failed += len(leaked)
    pinned = pinned_fingerprint(name, seed, factor, quick)
    if pinned is not None and fingerprint and fingerprint != pinned:
        failures.append(f"fingerprint {fingerprint} != pinned {pinned}")
        failed = ops

    record = {
        "workload": name,
        "traced": traced,
        "ops_attempted": ops,
        "ops_failed": min(failed, ops),
        "failures": failures,
        "warnings": warnings,
        "setup_s": min(setups),
        "setup_samples": setups,
        "raw_setup_samples": raw_setups,
        "wall_s": wall,
        "cpu_s": cpu,
        "raw_wall_s": raw_wall,
        "raw_cpu_s": raw_cpu,
        "slowdown": slowdown,
        "pinned_cpu": pinned_cpu,
        "ops_per_s": ops / wall,
        "cpu_ms_per_op": 1e3 * cpu / ops,
        "peak_rss_mb": peak_rss_kib / 1024,
        "fingerprint": fingerprint,
        "fingerprint_pinned": pinned is not None,
        "layers": layers,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if w.kind == "mp" and traced and outcome is not None:
        record["single_worker_ops_per_s"] = single_worker_rate(w, inputs, speed)
    speed.stop()
    return record


def single_worker_rate(w: Workload, inputs: dict, speed: MachineSpeed) -> float:
    """steps/s of the same configuration with one async worker at half the
    epochs: the plain single-worker baseline ``mp.speedup_vs_1`` divides by.
    Runs after the traced call, with the recorder off."""
    config = inputs["config"].with_overrides(
        num_machines=1, epochs=max(1, inputs["config"].epochs // 2)
    )
    trainer = make_trainer(w.system, config)
    trainer.setup(inputs["train"])
    t0 = perf_counter()
    result = trainer.train_mp(inputs["train"], schedule="async", start_method="fork")
    wall = (perf_counter() - t0) / speed.slowdown(t0, perf_counter())
    return sum(row["steps"] for row in result.worker_wall.values()) / wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--factor", type=float, default=1.0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--dump-spans", action="store_true")
    args = parser.parse_args(argv)
    record = run_once(
        args.workload, args.seed, args.factor, args.quick,
        args.traced, args.trace_out, args.dump_spans,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
