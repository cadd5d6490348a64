"""Overload study: multi-tenant serving past saturation, under faults,
across version swaps.

The other serving experiments (:mod:`repro.experiments.serving_study`)
measure a server inside its comfort zone.  This one drives it past the
cliff on purpose and checks that the overload layer
(:mod:`repro.serving.admission`) fails *gracefully*:

* **Load sweep** — offered load is swept from well under to far past the
  measured saturation throughput.  Under the sweep's SLO the shed rate
  must rise monotonically past saturation while the p99 of *admitted*
  queries stays inside the SLO: the ladder trades completeness for
  predictability instead of letting every tenant's tail collapse
  together.
* **Fault window** — one over-saturation point additionally runs a
  PS-shard outage + drop window through the retrying
  :class:`~repro.serving.channel.FaultyShardChannel`: retries are
  metered, nothing raises, and timed-out batches surface as first-class
  ``timeout`` outcomes.
* **Version swap** — a mid-stream checkpoint publish
  (:mod:`repro.serving.deploy`) with and without pre-swap cache
  re-warming: the re-warmed swap must hold the post-swap hit ratio
  within 10% of the pre-swap window, while the naive (invalidate-only)
  swap shows the cliff.

Every cell is an independent seeded run, so ``jobs`` parallelism is
byte-identical to serial execution.
"""

from __future__ import annotations

from repro.core.trainer import make_trainer
from repro.experiments.common import (
    ExperimentResult,
    base_config,
    dataset_bundle,
)
from repro.faults.plan import FaultPlan
from repro.mp.pool import process_map
from repro.serving.admission import (
    AdmissionController,
    LoadShedder,
    assign_tenants,
)
from repro.serving.batcher import QueryBatcher
from repro.serving.cache import ServingCache
from repro.serving.deploy import (
    ContinuousDeployment,
    VersionedStore,
    snapshot_from_trainer,
)
from repro.serving.frontend import ServingFrontend
from repro.serving.metrics import ServingReport
from repro.serving.workload import WorkloadSpec, ZipfianWorkload

#: Offered arrival rates (queries/s); saturation for the sweep's model
#: and batcher sits near ~27k qps, so the top points are 2-5x past it.
LOAD_POINTS = (8_000.0, 16_000.0, 32_000.0, 64_000.0, 128_000.0)

#: The sweep's latency objective (simulated seconds).
SLO = 0.01

#: Tenant contracts: two priority tiers with generous buckets plus a
#: rate-capped ``free`` tier that admission control clips at high load.
ADMISSION_SPEC = "gold=1000000.0/512/p2,silver=1000000.0/512/p1,free=8000.0/64"

TENANTS = ("gold", "silver", "free")

#: Fault window for the fault-stressed point: shard 0 black-holed for
#: batches 5-8, then a lossy patch until batch 40.
FAULT_SPEC = "seed=7,retries=4x0.004,ps-out=0@5:8,drop=0.3@9:40"


def _shedder() -> LoadShedder:
    """The sweep's ladder: degrade early, shed tight, small priority
    stretch so even gold sheds before it busts the SLO."""
    return LoadShedder(
        slo=SLO, degrade_at=0.4, enter=0.7, exit=0.45, priority_slack=0.2
    )


def _serve_point(task: tuple[float, float, int, int, int, str | None]):
    """One offered-load point (module-level: picklable, hermetic)."""
    rate, scale, epochs, seed, num_queries, fault_spec = task
    bundle = dataset_bundle("fb15k", scale=scale, seed=seed)
    config = base_config(
        epochs=epochs,
        seed=seed,
        dim=8,
        batch_size=32,
        num_negatives=4,
        num_machines=2,
        cache_capacity=64,
        sync_period=4,
    )
    trainer = make_trainer("hetkg-d", config)
    trainer.train(bundle.split.train)
    store = snapshot_from_trainer(trainer)
    capacity = max(2, int(0.1 * (store.num_entities + store.num_relations)))
    spec = WorkloadSpec(num_queries=num_queries, arrival_rate=rate, seed=seed + 11)
    log = ZipfianWorkload.from_graph(bundle.graph, spec).generate()
    queries = assign_tenants(log.queries, TENANTS)
    frontend = ServingFrontend(
        store,
        batcher=QueryBatcher(max_batch=16, max_wait=2e-3),
        cache=ServingCache.dynamic(capacity, policy="lru"),
        byte_scale=25.0,
        admission=AdmissionController.parse(ADMISSION_SPEC),
        shedder=_shedder(),
        faults=FaultPlan.parse(fault_spec) if fault_spec else None,
    )
    label = f"{rate / 1e3:g}k qps" + ("+faults" if fault_spec else "")
    report = frontend.run(queries, label=label)
    retries = frontend.injector.stats.retries if frontend.injector else 0
    return rate, report, retries


def _swap_run(
    trainer, bundle, rewarm: bool, seed: int
) -> tuple[list[float], ServingReport]:
    """One chunked serving run with a mid-stream version swap.

    Returns the per-chunk hit ratios (the swap lands before chunk 8)
    and the final report.
    """
    vstore = VersionedStore(snapshot_from_trainer(trainer))
    capacity = max(2, int(0.25 * (vstore.num_entities + vstore.num_relations)))
    frontend = ServingFrontend(
        vstore,
        batcher=QueryBatcher(max_batch=16, max_wait=2e-3),
        cache=ServingCache.dynamic(capacity, policy="lru"),
        byte_scale=25.0,
    )
    deploy = ContinuousDeployment(vstore, frontend, rewarm=rewarm)
    spec = WorkloadSpec(
        num_queries=1600, arrival_rate=2000.0, seed=seed + 11, zipf_exponent=1.6
    )
    log = ZipfianWorkload.from_graph(bundle.graph, spec).generate()
    per_chunk = []
    report = None
    for j in range(16):
        chunk = log.queries[j * 100 : (j + 1) * 100]
        if j == 8:
            deploy.publish(trainer, step=100)
        hits0, misses0 = frontend.cache.hits, frontend.cache.misses
        report = frontend.run(chunk)
        delta = (frontend.cache.hits - hits0) + (frontend.cache.misses - misses0)
        per_chunk.append((frontend.cache.hits - hits0) / max(1, delta))
    return per_chunk, report


def run_serving_scale(
    scale: float = 0.02,
    epochs: int = 1,
    seed: int = 0,
    num_queries: int = 800,
    jobs: int = 1,
) -> ExperimentResult:
    """serving-scale: graceful degradation past saturation.

    Asserted invariants (the experiment fails loudly if the overload
    layer regresses):

    * shed rate is monotone non-decreasing in offered load;
    * at the top load points (>= 2x saturation) the shed rate is
      positive and the p99 of admitted queries stays within the SLO;
    * the fault-stressed point meters retries without raising;
    * the re-warmed version swap holds the post-swap hit ratio within
      10% of the pre-swap window; the naive swap drops further.
    """
    tasks = [
        (rate, scale, epochs, seed, num_queries, None) for rate in LOAD_POINTS
    ]
    # Fault-stressed point at ~2x saturation.
    tasks.append((64_000.0, scale, epochs, seed, num_queries, FAULT_SPEC))
    outcomes = process_map(_serve_point, tasks, jobs=jobs)

    rows = []
    series: dict[str, list[tuple[float, float]]] = {
        "shed-rate": [],
        "goodput": [],
        "p99-admitted-ms": [],
    }
    sweep = outcomes[: len(LOAD_POINTS)]
    for rate, report, _retries in sweep:
        rows.append(report.as_row())
        series["shed-rate"].append((rate, report.shed_rate))
        series["goodput"].append((rate, report.goodput))
        series["p99-admitted-ms"].append((rate, report.latency_p99 * 1e3))

    shed_rates = [report.shed_rate for _, report, _ in sweep]
    assert all(
        b >= a - 1e-12 for a, b in zip(shed_rates, shed_rates[1:])
    ), f"shed rate must be monotone in offered load, got {shed_rates}"
    for rate, report, _ in sweep[-2:]:
        assert report.shed_rate > 0.0, (
            f"expected shedding at {rate:g} qps (past saturation), "
            f"got shed rate {report.shed_rate}"
        )
        assert report.latency_p99 <= SLO, (
            f"p99 of admitted queries must stay within the SLO under "
            f"shedding at {rate:g} qps: {report.latency_p99 * 1e3:.2f} ms "
            f"vs {SLO * 1e3:.2f} ms"
        )

    fault_rate, fault_report, fault_retries = outcomes[len(LOAD_POINTS)]
    rows.append(fault_report.as_row())
    assert fault_retries > 0, "fault window should have metered retries"

    # --- the version-swap comparison (serial: shares one trainer).
    bundle = dataset_bundle("fb15k", scale=scale, seed=seed)
    config = base_config(
        epochs=epochs,
        seed=seed,
        dim=8,
        batch_size=32,
        num_negatives=4,
        num_machines=2,
        cache_capacity=64,
        sync_period=4,
    )
    trainer = make_trainer("hetkg-d", config)
    trainer.train(bundle.split.train)
    warm_curve, warm_report = _swap_run(trainer, bundle, rewarm=True, seed=seed)
    cold_curve, cold_report = _swap_run(trainer, bundle, rewarm=False, seed=seed)
    series["hit-ratio/rewarm"] = [
        (float(j), h) for j, h in enumerate(warm_curve)
    ]
    series["hit-ratio/cold-swap"] = [
        (float(j), h) for j, h in enumerate(cold_curve)
    ]
    pre_swap = warm_curve[7]
    warm_drop = (pre_swap - warm_curve[8]) / pre_swap
    cold_drop = (pre_swap - cold_curve[8]) / pre_swap
    assert warm_drop <= 0.10, (
        f"re-warmed swap must hold the hit ratio within 10% of the "
        f"pre-swap window, dropped {warm_drop:.1%}"
    )
    assert cold_drop > warm_drop, (
        f"naive swap should cliff harder than the re-warmed one: "
        f"cold {cold_drop:.1%} vs rewarm {warm_drop:.1%}"
    )
    rows.append(warm_report.as_row())
    rows.append(cold_report.as_row())
    rows[-2][0] = "swap+rewarm"
    rows[-1][0] = "swap+cold"

    return ExperimentResult(
        experiment_id="serving-scale",
        title="Overload-robust serving: load sweep, faults, version swaps",
        headers=ServingReport.headers(),
        rows=rows,
        series=series,
        notes=(
            f"SLO {SLO * 1e3:g} ms; tenants {ADMISSION_SPEC}; asserted: "
            "monotone shed rate, p99-of-admitted within SLO past "
            f"saturation, retries metered under '{FAULT_SPEC}', and "
            f"re-warmed swap dip {warm_drop:.1%} <= 10% vs naive "
            f"{cold_drop:.1%}"
        ),
    )
