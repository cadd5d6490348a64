"""Tests for the overload-robust serving layer.

Covers the four tentpole pieces of the overload PR:

1. **Admission control** (`repro.serving.admission`) — token buckets,
   the spec grammar, priorities, and first-class rejected outcomes.
2. **Load shedding** — the deadline-projecting ladder with hysteresis.
3. **Fault-stressed serving** — the retrying shard channel: outages
   meter retries and surface as ``timeout`` outcomes, never exceptions;
   a zero plan is bit-identical to the channel-free frontend.
4. **Continuous deployment** (`repro.serving.deploy`) — double-buffered
   version swaps, pre-swap cache re-warming, and the staleness metric.

Plus the regression guard: with every overload feature disabled the
frontend must reproduce ``tests/golden/serving_golden.json`` (captured
pre-overload-layer) bit for bit.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import types

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.core.trainer import make_trainer
from repro.faults import FaultPlan
from repro.serving.admission import (
    DEGRADED,
    FULL,
    SHED_DECISION,
    AdmissionController,
    LoadShedder,
    TenantSpec,
    TokenBucket,
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
from repro.serving.queries import ADMITTED, REJECTED, TIMEOUT, Query
from repro.serving.store import EmbeddingStore
from repro.serving.workload import WorkloadSpec, ZipfianWorkload

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def score_query(qid, head=0, relation=0, tail=1, arrival=0.0, tenant=""):
    return Query(
        qid=qid, kind="score", head=head, relation=relation, tail=tail,
        arrival=arrival, tenant=tenant,
    )


@pytest.fixture(scope="module")
def served():
    """A small trained store + calibrated workload shared by the tests."""
    config = TrainingConfig(
        model="transe", dim=8, epochs=1, batch_size=32, num_negatives=4,
        num_machines=2, cache_strategy="dps", cache_capacity=64,
        sync_period=4, seed=0,
    )
    from repro.kg.datasets import generate_dataset
    from repro.kg.splits import split_triples

    graph = generate_dataset("fb15k", scale=0.015, seed=7)
    split = split_triples(graph, seed=7)
    trainer = make_trainer("hetkg-d", config)
    trainer.train(split.train)
    return trainer, graph, snapshot_from_trainer(trainer)


def make_workload(graph, num_queries=400, rate=50_000.0, seed=11, zipf=1.1):
    spec = WorkloadSpec(
        num_queries=num_queries, arrival_rate=rate, zipf_exponent=zipf, seed=seed
    )
    return ZipfianWorkload.from_graph(graph, spec).generate()


def overload_frontend(store, **kwargs):
    defaults = dict(
        batcher=QueryBatcher(max_batch=16, max_wait=2e-3),
        byte_scale=25.0,
    )
    defaults.update(kwargs)
    return ServingFrontend(store, **defaults)


# ------------------------------------------------------------------ admission


class TestTokenBucket:
    def test_burst_then_rate_limits(self):
        bucket = TokenBucket(rate=10.0, burst=3)
        assert [bucket.try_take(0.0) for _ in range(4)] == [
            True, True, True, False,
        ]
        # 0.1 simulated seconds refills exactly one token.
        assert bucket.try_take(0.1)
        assert not bucket.try_take(0.1)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=1000.0, burst=2)
        for _ in range(2):
            assert bucket.try_take(0.0)
        assert [bucket.try_take(100.0) for _ in range(3)] == [True, True, False]

    def test_stale_timestamp_refills_nothing(self):
        bucket = TokenBucket(rate=1000.0, burst=1)
        assert bucket.try_take(1.0)
        assert not bucket.try_take(0.5)


class TestAdmissionController:
    def test_parse_grammar(self):
        ctrl = AdmissionController.parse("gold=2000/256/p2,free=500/64,*=100")
        assert ctrl.specs["gold"] == TenantSpec("gold", 2000.0, 256, 2)
        assert ctrl.specs["free"] == TenantSpec("free", 500.0, 64, 0)
        assert ctrl.specs["*"].rate == 100.0
        assert ctrl.max_priority == 2

    def test_parse_errors_name_the_clause(self):
        for spec, clause in [
            ("gold", "gold"),
            ("gold=fast", "gold=fast"),
            ("gold=100/zz", "gold=100/zz"),
            ("gold=100,free=-1", "free=-1"),
        ]:
            with pytest.raises(ValueError, match="clause") as err:
                AdmissionController.parse(spec)
            assert clause in str(err.value)
        with pytest.raises(ValueError, match="no tenants"):
            AdmissionController.parse(" , ")

    def test_spec_round_trip(self):
        for spec in (
            "gold=2000.0/256/p2,free=500.0/64,*=100.0",
            "a=1.5",
            "b=3.0/7/p4",
        ):
            ctrl = AdmissionController.parse(spec)
            again = AdmissionController.parse(ctrl.to_spec())
            assert again.specs == ctrl.specs

    def test_unknown_tenant_without_wildcard_admitted(self):
        ctrl = AdmissionController([TenantSpec("gold", rate=1.0, burst=1)])
        assert all(ctrl.admit("stranger", 0.0) for _ in range(100))
        assert ctrl.admitted["stranger"] == 100

    def test_wildcard_buckets_are_per_tenant(self):
        ctrl = AdmissionController.parse("*=1000/1")
        assert ctrl.admit("a", 0.0)
        # b gets its own bucket: a's spent token does not gate b.
        assert ctrl.admit("b", 0.0)
        assert not ctrl.admit("a", 0.0)

    def test_rejections_counted(self):
        ctrl = AdmissionController.parse("free=10/2")
        decisions = [ctrl.admit("free", 0.0) for _ in range(5)]
        assert decisions == [True, True, False, False, False]
        assert ctrl.admitted == {"free": 2}
        assert ctrl.rejected == {"free": 3}

    def test_duplicate_tenant_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AdmissionController.parse("a=1,a=2")


class TestAssignTenants:
    def test_round_robin_by_qid(self):
        queries = [score_query(qid, arrival=qid * 0.1) for qid in range(6)]
        tagged = assign_tenants(queries, ["x", "y", "z"])
        assert [q.tenant for q in tagged] == ["x", "y", "z", "x", "y", "z"]
        # Originals are untouched (queries are frozen).
        assert all(q.tenant == "" for q in queries)

    def test_requires_names(self):
        with pytest.raises(ValueError, match="tenant name"):
            assign_tenants([], [])


# ------------------------------------------------------------------- shedding


class TestLoadShedder:
    def test_validates_knobs(self):
        with pytest.raises(ValueError):
            LoadShedder(slo=0.0)
        with pytest.raises(ValueError, match="exit"):
            LoadShedder(slo=1.0, enter=1.0, exit=1.0)
        with pytest.raises(ValueError, match="degrade_at"):
            LoadShedder(slo=1.0, degrade_at=2.0, enter=1.0)
        with pytest.raises(ValueError, match="priority_slack"):
            LoadShedder(slo=1.0, priority_slack=-1.0)

    def test_cold_server_never_sheds_first_arrival(self):
        shedder = LoadShedder(slo=0.01)
        projected = shedder.projected_latency(
            arrival=0.0, server_clock=0.0, queue_depth=0, max_wait=2e-3
        )
        assert shedder.assess(0, projected) == FULL

    def test_ewma_estimate_converges(self):
        shedder = LoadShedder(slo=0.01, ewma=0.5)
        shedder.observe_batch(10, 0.1)  # 10 ms per query
        assert shedder.service_estimate == pytest.approx(0.01)
        shedder.observe_batch(10, 0.3)  # 30 ms per query
        assert shedder.service_estimate == pytest.approx(0.02)
        shedder.observe_batch(0, 5.0)  # empty batches are ignored
        assert shedder.service_estimate == pytest.approx(0.02)

    def test_ladder_and_hysteresis(self):
        shedder = LoadShedder(
            slo=1.0, degrade_at=0.5, enter=1.0, exit=0.6, priority_slack=0.0
        )
        assert shedder.assess(0, 0.1) == FULL
        assert shedder.assess(0, 0.7) == DEGRADED
        assert shedder.assess(0, 1.2) == SHED_DECISION
        # Inside the hysteresis band the shedding state is sticky.
        assert shedder.assess(0, 0.8) == SHED_DECISION
        assert shedder.is_shedding(0)
        # Only below exit does it disengage (0.55 is still >= degrade_at).
        assert shedder.assess(0, 0.55) == DEGRADED
        assert not shedder.is_shedding(0)
        assert shedder.stats.engaged == 1
        assert shedder.stats.disengaged == 1

    def test_priority_sheds_low_first(self):
        shedder = LoadShedder(slo=1.0, enter=1.0, exit=0.5, priority_slack=1.0)
        # Pressure 1.5 busts priority 0 (threshold 1.0) but not
        # priority 2 (threshold 3.0).
        assert shedder.assess(0, 1.5) == SHED_DECISION
        assert shedder.assess(2, 1.5) != SHED_DECISION

    def test_truncated_candidates_keeps_hot_prefix(self):
        shedder = LoadShedder(slo=1.0, degrade_keep=0.5)
        assert shedder.truncated_candidates((1, 2, 3, 4)) == (1, 2)
        assert shedder.truncated_candidates((7,)) == (7,)
        assert shedder.truncated_candidates(()) == ()

    def test_projection_includes_backlog_queue_and_wait(self):
        shedder = LoadShedder(slo=1.0)
        shedder.observe_batch(1, 0.01)
        projected = shedder.projected_latency(
            arrival=1.0, server_clock=1.5, queue_depth=3, max_wait=0.002
        )
        assert projected == pytest.approx(0.5 + 4 * 0.01 + 0.002)


# --------------------------------------------------- frontend under overload


class TestOverloadFrontend:
    def test_outcomes_partition_the_stream(self, served):
        _, graph, store = served
        log = make_workload(graph, num_queries=400, rate=50_000.0)
        frontend = overload_frontend(
            store,
            cache=ServingCache.dynamic(32, policy="lru"),
            admission=AdmissionController.parse("free=8000/32"),
            shedder=LoadShedder(
                slo=0.01, degrade_at=0.4, enter=0.7, exit=0.45
            ),
        )
        queries = assign_tenants(log.queries, ["free"])
        report = frontend.run(queries)
        assert report.num_queries == len(queries)
        assert (
            report.num_admitted + report.num_rejected
            + report.num_shed + report.num_timeout
        ) == report.num_queries
        assert report.num_rejected > 0  # the 8k bucket clips a 50k stream
        assert report.shed_rate > 0.0
        assert report.goodput <= report.throughput
        assert report.tenant_p99.keys() == {"free"}

    def test_rejected_complete_instantly_answerless(self, served):
        _, graph, store = served
        log = make_workload(graph, num_queries=100, rate=50_000.0)
        frontend = overload_frontend(
            store, admission=AdmissionController.parse("*=1000/1")
        )
        frontend.run(assign_tenants(log.queries, ["t"]))
        rejected = [r for r in frontend.results if r.outcome == REJECTED]
        assert rejected
        for result in rejected:
            assert result.completion == result.arrival
            assert result.answer is None
            assert result.batch_size == 0
            assert result.tenant == "t"

    def test_degraded_ladder_truncates_but_answers(self, served):
        _, graph, store = served
        log = make_workload(graph, num_queries=300, rate=50_000.0)
        # A wide hysteresis band that degrades early and sheds never.
        frontend = overload_frontend(
            store,
            shedder=LoadShedder(
                slo=0.01, degrade_at=0.05, enter=50.0, exit=1.0
            ),
        )
        report = frontend.run(log.queries)
        assert report.num_shed == 0
        assert report.num_degraded > 0
        degraded = [r for r in frontend.results if r.degraded]
        assert degraded
        for result in degraded:
            assert result.outcome == ADMITTED
            assert result.answer is not None

    def test_admitted_only_latency_percentiles(self, served):
        """Rejected/shed zero-latency records must not deflate the tail."""
        _, graph, store = served
        log = make_workload(graph, num_queries=300, rate=50_000.0)
        frontend = overload_frontend(
            store, admission=AdmissionController.parse("*=4000/16")
        )
        report = frontend.run(assign_tenants(log.queries, ["t"]))
        admitted = [
            r.latency for r in frontend.results if r.outcome == ADMITTED
        ]
        assert report.num_rejected > 0
        assert report.latency_p50 >= min(admitted)
        assert report.latency_mean == pytest.approx(float(np.mean(admitted)))


# ------------------------------------------------------- golden bit-identity


class TestGoldenBitIdentity:
    """The plain serving path vs the committed pre-overload fingerprint."""

    def test_disabled_features_reproduce_golden(self):
        spec = importlib.util.spec_from_file_location(
            "serving_golden_capture", GOLDEN_DIR / "capture_serving.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        golden = json.loads((GOLDEN_DIR / "serving_golden.json").read_text())
        fresh = module.capture()
        for scenario in ("no-cache", "static", "lru"):
            assert fresh[scenario] == golden[scenario], (
                f"serving scenario {scenario!r} diverged from the "
                f"pre-overload golden fingerprint"
            )


# -------------------------------------------------------- fault-y serving


class TestFaultServing:
    def test_outage_meters_retries_never_raises(self, served):
        _, graph, store = served
        log = make_workload(graph, num_queries=300, rate=20_000.0)
        frontend = overload_frontend(
            store,
            cache=ServingCache.dynamic(32, policy="lru"),
            faults=FaultPlan.parse(
                "seed=1,retries=3x0.002,ps-out=0@2:5,drop=0.6@5:30"
            ),
        )
        report = frontend.run(log.queries)  # must not raise
        assert frontend.injector.stats.retries > 0
        assert frontend.injector.stats.retry_wait_seconds > 0.0
        assert frontend.comm_totals.retransmit_bytes > 0
        assert report.num_timeout > 0
        for result in frontend.results:
            if result.outcome == TIMEOUT:
                assert result.answer is None
                assert result.completion >= result.arrival

    def test_zero_plan_bit_identical_to_plain_frontend(self, served):
        _, graph, store = served
        log = make_workload(graph, num_queries=200, rate=5_000.0)
        plain = overload_frontend(store, cache=ServingCache.dynamic(32))
        chaotic = overload_frontend(
            store,
            cache=ServingCache.dynamic(32),
            faults=FaultPlan.none(seed=9),
        )
        plain.run(log.queries)
        chaotic.run(log.queries)
        assert chaotic.clock.elapsed == plain.clock.elapsed
        assert chaotic.comm_totals == plain.comm_totals
        for a, b in zip(plain.results, chaotic.results):
            assert (a.qid, a.completion, a.outcome) == (
                b.qid, b.completion, b.outcome,
            )
        assert chaotic.injector.stats.retries == 0

    def test_timeout_batch_charges_no_compute(self, served):
        _, graph, store = served
        log = make_workload(graph, num_queries=60, rate=20_000.0)
        # Total blackout: every batch burns its budget and times out.
        frontend = overload_frontend(
            store,
            faults=FaultPlan.parse("seed=1,retries=2x0.001,drop=1.0"),
        )
        report = frontend.run(log.queries)
        assert report.num_timeout == report.num_queries
        assert frontend.clock.category("compute") == 0.0
        assert frontend.clock.category("communication") > 0.0

    def test_plan_naming_an_absent_shard_is_rejected(self, served):
        """An outage of a shard the store does not have could never fire
        (regression: the frontend accepted it and served as if fault-free)."""
        _, _, store = served
        with pytest.raises(ValueError, match="'ps-out=2@1:9': shard 2 is not in a cluster of 2"):
            overload_frontend(store, faults=FaultPlan.parse("ps-out=2@1:9"))


# -------------------------------------------------------------- deployment


class FakeMembership:
    """Stands in for a trainer hot cache: exposes ``cached_ids(kind)``."""

    def __init__(self, entities, relations):
        self._ids = {
            "entity": np.asarray(entities, dtype=np.int64),
            "relation": np.asarray(relations, dtype=np.int64),
        }

    def cached_ids(self, kind):
        return self._ids[kind]


class TestWarmFrom:
    def test_preserves_configured_dynamic_cache(self, served):
        """Regression: warm_from used to replace a capped dynamic cache
        with an uncapped static pin of the whole membership."""
        _, _, store = served
        cache = ServingCache.dynamic(10, policy="lru")
        frontend = overload_frontend(store, cache=cache)
        frontend.warm_from(FakeMembership(range(50), range(20)))
        assert frontend.cache is cache  # same object, not replaced
        assert cache.label == "lru"
        assert cache.size() <= 10
        assert cache.table("entity").capacity + cache.table(
            "relation"
        ).capacity == 10

    def test_no_cache_installs_static_membership(self, served):
        _, _, store = served
        frontend = overload_frontend(store, cache=None)
        frontend.warm_from(FakeMembership([1, 2, 3], [0]))
        assert frontend.cache is not None
        assert frontend.cache.label == "static"
        assert frontend.cache.size() == 4

    def test_static_cache_repins_capped(self, served):
        _, _, store = served
        from repro.cache.filtering import HotSet

        cache = ServingCache.static(
            HotSet(
                entities=np.arange(4, dtype=np.int64),
                relations=np.arange(2, dtype=np.int64),
            )
        )
        frontend = overload_frontend(store, cache=cache)
        frontend.warm_from(FakeMembership(range(100, 120), range(50, 60)))
        # Membership replaced, capacity respected (hottest prefix kept).
        assert frontend.cache is cache
        assert cache.size() == 6
        assert bool(cache.lookup("entity", np.asarray([100]))[0])

    @pytest.mark.parametrize("policy", ["static", "lru", "arc"])
    def test_rewarmed_leaves_every_meter_where_it_was(self, policy):
        """Pre-admission is background warming, not served traffic: the
        cache's meters and both tables' meters read the same after
        ``rewarmed`` as before it, and the membership is resident."""
        from repro.cache.filtering import HotSet

        old = HotSet(
            entities=np.arange(6, dtype=np.int64),
            relations=np.arange(2, dtype=np.int64),
        )
        cache = (
            ServingCache.static(old)
            if policy == "static"
            else ServingCache.dynamic(16, policy=policy)
        )
        cache.lookup("entity", np.asarray([0, 1, 90, 0]))
        cache.lookup("relation", np.asarray([0, 70]))
        cache.lookup("entity", np.asarray([1, 91]))

        def meters():
            return [
                (m.hits, m.misses, m.hit_ratio)
                for m in (cache, cache.table("entity"), cache.table("relation"))
            ]

        before = meters()
        assert cache.hits + cache.misses == 8 and cache.hits > 0
        new = HotSet(
            entities=np.arange(100, 120, dtype=np.int64),
            relations=np.arange(50, 60, dtype=np.int64),
        )
        assert cache.rewarmed(new) is cache
        assert meters() == before
        for kind, ids in (("entity", new.entities), ("relation", new.relations)):
            table = cache.table(kind)
            assert len(table) == min(table.capacity, len(ids))
            assert cache.lookup(kind, ids[: table.capacity]).all()


class TestVersionedStore:
    def test_delegates_to_active_version(self, served):
        _, _, store = served
        vstore = VersionedStore(store)
        assert vstore.num_entities == store.num_entities
        assert vstore.model is store.model
        heads = np.asarray([0, 1])
        rels = np.asarray([0, 0])
        tails = np.asarray([1, 2])
        np.testing.assert_array_equal(
            vstore.score_triples(heads, rels, tails),
            store.score_triples(heads, rels, tails),
        )

    def test_swap_promotes_staging_and_stamps_history(self, served):
        trainer, _, store = served
        vstore = VersionedStore(store, trainer_step=10)
        fresh = snapshot_from_trainer(trainer)
        vstore.stage(fresh, trainer_step=25)
        assert vstore.version == 0 and vstore.active_step == 10
        vstore.swap()
        assert vstore.version == 1
        assert vstore.active_step == 25
        assert vstore.swaps == 1
        assert vstore.history == [(0, 10), (1, 25)]
        assert vstore.model is fresh.model

    def test_swap_without_staged_version_raises(self, served):
        _, _, store = served
        with pytest.raises(RuntimeError, match="staged"):
            VersionedStore(store).swap()

    def test_stage_rejects_geometry_mismatch(self, served):
        _, _, store = served
        from repro.models.base import get_model
        from repro.ps.kvstore import ShardedKVStore

        wrong_model = get_model("transe", 4)
        entity = np.zeros((store.num_entities, 4))
        relation = np.zeros((store.num_relations, 4))
        owners = np.zeros(store.num_entities, dtype=np.int64)
        small = EmbeddingStore(
            wrong_model, ShardedKVStore(entity, relation, owners, 1)
        )
        with pytest.raises(ValueError):
            VersionedStore(store).stage(small, trainer_step=1)

    def test_staleness_tracks_trainer_progress(self, served):
        _, _, store = served
        vstore = VersionedStore(store)
        assert vstore.staleness == 0
        vstore.note_trainer_step(40)
        assert vstore.staleness == 40
        vstore.stage(store, trainer_step=40)
        vstore.swap()
        assert vstore.staleness == 0

    def test_snapshot_is_a_copy(self, served):
        trainer, _, _ = served
        snap = snapshot_from_trainer(trainer)
        live = trainer.server.store.table("entity")
        before = snap.store.table("entity")[0].copy()
        live[0] += 1.0
        try:
            np.testing.assert_array_equal(snap.store.table("entity")[0], before)
        finally:
            live[0] -= 1.0


class TestContinuousDeployment:
    def _frontend(self, served, cache):
        trainer, graph, _ = served
        vstore = VersionedStore(snapshot_from_trainer(trainer))
        frontend = overload_frontend(vstore, cache=cache)
        return trainer, graph, vstore, frontend

    def test_publish_swaps_and_rewarms(self, served):
        trainer, graph, vstore, frontend = self._frontend(
            served, ServingCache.dynamic(32, policy="lru")
        )
        deploy = ContinuousDeployment(vstore, frontend, rewarm=True)
        frontend.run(make_workload(graph, num_queries=100, rate=2_000.0))
        deploy.publish(trainer, step=64)
        assert vstore.version == 1
        assert vstore.active_step == 64
        # Re-warm pre-admitted the trainer's hot membership...
        assert frontend.cache.size() > 0
        assert deploy.warm_traffic.total_bytes > 0
        # ...without replacing the configured cache shape.
        assert frontend.cache.label == "lru"
        report = frontend.report()
        assert report.version_swaps == 1
        assert report.staleness == 0

    def test_publish_without_rewarm_invalidates(self, served):
        trainer, graph, vstore, frontend = self._frontend(
            served, ServingCache.dynamic(32, policy="lru")
        )
        deploy = ContinuousDeployment(vstore, frontend, rewarm=False)
        frontend.run(make_workload(graph, num_queries=100, rate=2_000.0))
        assert frontend.cache.size() > 0
        deploy.publish(trainer, step=64)
        assert frontend.cache.size() == 0  # the naive cold swap
        assert deploy.warm_traffic.total_bytes == 0

    def test_rewarmed_swap_beats_cold_swap(self, served):
        """The cliff: post-swap hit ratio with re-warming vs without."""
        trainer, graph, _ = served
        bundle = types.SimpleNamespace(graph=graph)
        from repro.experiments.serving_scale import _swap_run

        warm_curve, warm_report = _swap_run(trainer, bundle, rewarm=True, seed=0)
        cold_curve, cold_report = _swap_run(trainer, bundle, rewarm=False, seed=0)
        # Identical streams up to the swap (chunk 8)...
        assert warm_curve[:8] == cold_curve[:8]
        # ...then the re-warmed cache holds more of its hit ratio.
        assert warm_curve[8] > cold_curve[8]
        assert warm_report.version_swaps == cold_report.version_swaps == 1

    def test_answers_served_from_the_new_version(self, served):
        trainer, graph, vstore, frontend = self._frontend(served, None)
        deploy = ContinuousDeployment(vstore, frontend, rewarm=True)
        deploy.publish(trainer, step=1)
        fresh = snapshot_from_trainer(trainer)
        query = score_query(0, head=0, relation=0, tail=1)
        frontend.run([query])
        expected = float(
            fresh.score_triples(
                np.asarray([0]), np.asarray([0]), np.asarray([1])
            )[0]
        )
        assert frontend.results[0].answer == expected


# ----------------------------------------------------- frontend edge cases


class TestFrontendEdgeCases:
    def test_arrival_exactly_at_deadline_flushes_first(self, served):
        _, _, store = served
        frontend = ServingFrontend(
            store, batcher=QueryBatcher(max_batch=10, max_wait=5e-3)
        )
        frontend.run(
            [score_query(0, arrival=0.0), score_query(1, arrival=5e-3)]
        )
        # The deadline flush fires before the boundary arrival joins, so
        # each query dispatches in its own batch.
        by_qid = {r.qid: r for r in frontend.results}
        assert by_qid[0].batch_size == 1
        assert by_qid[1].batch_size == 1
        assert by_qid[0].completion <= by_qid[1].completion

    def test_repeated_run_accumulates_state(self, served):
        _, _, store = served
        frontend = ServingFrontend(
            store, batcher=QueryBatcher(max_batch=4, max_wait=1e-3)
        )
        first = frontend.run([score_query(0, arrival=0.0)])
        clock_after_first = frontend.clock.elapsed
        second = frontend.run([score_query(1, arrival=1.0)])
        assert first.num_queries == 1
        assert second.num_queries == 2  # cumulative, like a live server
        assert len(frontend.results) == 2
        assert frontend.clock.elapsed > clock_after_first
        assert second.duration >= 1.0

    def test_empty_stream_drains_cleanly(self, served):
        _, _, store = served
        frontend = ServingFrontend(store)
        report = frontend.run([])
        assert report.num_queries == 0
        assert report.throughput == 0.0
        assert frontend.batcher.deadline() is None

    def test_out_of_order_arrivals_are_sorted_per_run(self, served):
        _, _, store = served
        frontend = ServingFrontend(
            store, batcher=QueryBatcher(max_batch=2, max_wait=1e-3)
        )
        frontend.run(
            [score_query(1, arrival=0.5), score_query(0, arrival=0.0)]
        )
        assert len(frontend.results) == 2
        assert all(r.completion >= r.arrival for r in frontend.results)


# ------------------------------------------------- experiment: serving-scale


class TestServingScaleExperiment:
    def test_jobs_parallelism_is_bit_identical(self):
        """Each load point is hermetic: a process pool must reproduce the
        serial results byte for byte."""
        from repro.experiments.serving_scale import _serve_point
        from repro.mp.pool import process_map

        tasks = [
            (8_000.0, 0.02, 1, 0, 200, None),
            (32_000.0, 0.02, 1, 0, 200, None),
        ]
        serial = [_serve_point(task) for task in tasks]
        parallel = process_map(_serve_point, tasks, jobs=2)
        for (s_rate, s_report, s_retries), (p_rate, p_report, p_retries) in zip(
            serial, parallel
        ):
            assert s_rate == p_rate
            assert s_retries == p_retries
            assert s_report.as_row() == p_report.as_row()
            assert float(s_report.latency_p99).hex() == float(
                p_report.latency_p99
            ).hex()

    def test_serving_scale_smoke(self, served):
        """The CI smoke: one tenant past saturation, one fault window,
        one version swap — shed rate positive, admitted p99 inside SLO."""
        from repro.experiments.serving_scale import FAULT_SPEC, SLO, _shedder

        trainer, graph, _ = served
        vstore = VersionedStore(snapshot_from_trainer(trainer))
        frontend = overload_frontend(
            vstore,
            cache=ServingCache.dynamic(32, policy="lru"),
            admission=AdmissionController.parse("free=8000.0/64"),
            shedder=_shedder(),
            faults=FaultPlan.parse(FAULT_SPEC),
        )
        deploy = ContinuousDeployment(vstore, frontend, rewarm=True)
        log = make_workload(graph, num_queries=600, rate=64_000.0)
        queries = assign_tenants(log.queries, ["free"])
        frontend.run(queries[:300])
        deploy.publish(trainer, step=300)
        report = frontend.run(queries[300:])

        assert report.num_queries == 600
        assert report.shed_rate > 0.0, "past saturation the ladder must shed"
        assert report.latency_p99 <= SLO, (
            f"p99 of admitted queries {report.latency_p99 * 1e3:.2f} ms "
            f"busts the {SLO * 1e3:.0f} ms SLO"
        )
        assert frontend.injector.stats.retries > 0
        assert report.version_swaps == 1
