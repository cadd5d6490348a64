"""Tests for the mp backend: shm lifecycle, sync bit-identity, crash paths.

The heavyweight guarantee under test: ``train_mp(schedule="sync")`` over
real OS processes produces a :class:`TrainResult` **bit-identical** to the
single-process simulator — losses, SimClock categories, CommRecord
totals, final embedding tables, optimizer accumulators, and eval metrics.
Everything else (async smoke, crash propagation, leak-freedom, checkpoint
round-trip) defends the machinery that guarantee rests on.

Most spawns use the fork start method for speed (child setup is ~10x
cheaper); one spawn-method smoke keeps the pickled-spec path honest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.core.trainer import make_trainer
from repro.kg.datasets import generate_dataset
from repro.kg.splits import split_triples
from repro.mp import (
    MPUnsupportedError,
    MPWorkerCrashed,
    SharedArena,
    SharedArray,
    shm_segments,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def mp_config(**overrides) -> TrainingConfig:
    """The golden-run shape: 2 machines, 2 epochs, small tables."""
    defaults = dict(
        model="transe",
        dim=8,
        epochs=2,
        batch_size=32,
        num_negatives=4,
        num_machines=2,
        cache_capacity=64,
        sync_period=4,
        dps_window=8,
        seed=0,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


@pytest.fixture(scope="module")
def mp_data():
    graph = generate_dataset("fb15k", scale=0.02, seed=3)
    split = split_triples(graph, seed=3)
    return graph, split


@pytest.fixture(autouse=True)
def no_segment_leaks():
    """Every test must leave /dev/shm exactly as it found it."""
    before = shm_segments()
    yield
    leaked = [s for s in shm_segments() if s not in before]
    assert leaked == [], f"leaked shared-memory segments: {leaked}"


# ----------------------------------------------------------- shm primitives


class TestSharedArray:
    def test_roundtrip(self):
        data = np.arange(12, dtype=np.float64).reshape(4, 3)
        shared = SharedArray.create(data)
        try:
            assert np.array_equal(shared.view(), data)
        finally:
            shared.close()

    def test_attach_sees_writes(self):
        data = np.zeros((4, 3))
        owner = SharedArray.create(data)
        try:
            peer = SharedArray.attach(owner.spec())
            owner.view()[2, 1] = 7.5
            assert peer.view()[2, 1] == 7.5
            peer.view()[0, 0] = -1.0
            assert owner.view()[0, 0] == -1.0
            peer.close()
        finally:
            owner.close()

    def test_double_close_idempotent(self):
        shared = SharedArray.create(np.ones((2, 2)))
        shared.close()
        shared.close()  # must not raise

    def test_attach_after_unlink_raises(self):
        shared = SharedArray.create(np.ones((2, 2)))
        spec = shared.spec()
        shared.close()
        with pytest.raises(FileNotFoundError):
            SharedArray.attach(spec)

    def test_use_after_close_rejected(self):
        shared = SharedArray.create(np.ones((2, 2)))
        shared.close()
        with pytest.raises(ValueError, match="closed"):
            shared.view()


class TestSharedArena:
    def test_context_manager_unlinks(self):
        before = shm_segments()
        with SharedArena() as arena:
            arena.share(np.ones((2, 2)))
            arena.share(np.zeros(3))
            assert len(shm_segments()) == len(before) + 2
        assert shm_segments() == before

    def test_unlinks_on_exception(self):
        before = shm_segments()
        with pytest.raises(RuntimeError):
            with SharedArena() as arena:
                arena.share(np.ones((2, 2)))
                raise RuntimeError("boom")
        assert shm_segments() == before

    def test_finalizer_cleanup_without_close(self):
        before = shm_segments()
        arena = SharedArena()
        arena.share(np.ones((2, 2)))
        del arena  # finalizer must unlink
        import gc

        gc.collect()
        assert shm_segments() == before

    def test_dumps_sends_shared_views_by_name(self):
        """A shared view travels as its segment (attached once, however
        often it is referenced); every other array travels as a copy."""
        with SharedArena() as arena:
            shared = arena.share(np.zeros((3, 2)))
            private = np.ones(4)
            blob = arena.dumps({"a": shared, "b": shared, "private": private})
            attached: list = []
            got = SharedArena.loads(blob, attached)
            assert len(attached) == 1
            assert got["a"] is got["b"]
            got["a"][1, 1] = 5.0
            assert shared[1, 1] == 5.0
            got["private"][0] = -1.0
            assert private[0] == 1.0
            del got
            for array in attached:
                array.close()


# ------------------------------------------------------- sync bit-identity


def _fingerprint(trainer, result):
    acc = trainer.server.optimizer.state
    return {
        "losses": [float(p.loss).hex() for p in result.history.points],
        "sim_time": float(result.sim_time).hex(),
        "compute_time": float(result.compute_time).hex(),
        "communication_time": float(result.communication_time).hex(),
        "comm": (
            result.comm_totals.local_bytes,
            result.comm_totals.remote_bytes,
            result.comm_totals.local_messages,
            result.comm_totals.remote_messages,
            result.comm_totals.retransmit_bytes,
        ),
        "hit_ratio": float(result.cache_hit_ratio).hex(),
        "metrics": [p.metrics for p in result.history.points],
        "entity": trainer.server.store.table("entity").copy(),
        "relation": trainer.server.store.table("relation").copy(),
        "acc": {k: np.array(v, copy=True) for k, v in acc.items()},
    }


def _assert_identical(ref, got):
    assert got["losses"] == ref["losses"]
    assert got["sim_time"] == ref["sim_time"]
    assert got["compute_time"] == ref["compute_time"]
    assert got["communication_time"] == ref["communication_time"]
    assert got["comm"] == ref["comm"]
    assert got["hit_ratio"] == ref["hit_ratio"]
    assert got["metrics"] == ref["metrics"]
    assert np.array_equal(got["entity"], ref["entity"])
    assert np.array_equal(got["relation"], ref["relation"])
    assert set(got["acc"]) == set(ref["acc"])
    for kind in ref["acc"]:
        assert np.array_equal(got["acc"][kind], ref["acc"][kind])


def _assert_same_summary(ref, got):
    """Every ``RunSummary`` field a ``TrainResult`` carries is equal."""
    from dataclasses import fields

    from repro.core.ledger import RunSummary
    from repro.core.trainer import TrainResult

    shared = {f.name for f in fields(RunSummary)} & {
        f.name for f in fields(TrainResult)
    }
    assert {"sim_time", "cache_hit_ratio", "neg_cache_stats"} <= shared
    for name in sorted(shared):
        assert getattr(got, name) == getattr(ref, name), name


class TestSyncBitIdentity:
    @pytest.mark.parametrize("system", ["hetkg-d", "hetkg-c", "dglke"])
    def test_identical_to_simulator(self, system, mp_data):
        graph, split = mp_data
        sim = make_trainer(system, mp_config())
        r_sim = sim.train(
            split.train,
            eval_graph=split.test,
            known=graph,
            eval_max_queries=30,
            eval_candidates=40,
        )
        mp = make_trainer(system, mp_config())
        r_mp = mp.train_mp(
            split.train,
            eval_graph=split.test,
            known=graph,
            eval_max_queries=30,
            eval_candidates=40,
            schedule="sync",
            start_method="fork",
        )
        assert r_mp.backend == "mp/sync"
        assert r_mp.wall_time_s > 0
        _assert_identical(_fingerprint(sim, r_sim), _fingerprint(mp, r_mp))

    def test_every_summary_field_equals_simulator(self, mp_data):
        """Both backends build their result with one ``RunLedger``; every
        field it produces must agree, without this test naming them."""
        _, split = mp_data
        cfg = mp_config(neg_cache="nscaching", filter_false_negatives=True)
        r_sim = make_trainer("hetkg-d", cfg).train(split.train)
        r_mp = make_trainer("hetkg-d", cfg).train_mp(
            split.train, schedule="sync", start_method="fork"
        )
        assert r_sim.neg_cache_stats["refreshes"] > 0
        _assert_same_summary(r_sim, r_mp)
        assert [p.sim_time for p in r_mp.history.points] == [
            p.sim_time for p in r_sim.history.points
        ]

    def test_spawn_start_method(self, mp_data):
        # One spawn-method run keeps the pickled-spec path honest (fork
        # inherits module state that spawn must reconstruct).
        graph, split = mp_data
        sim = make_trainer("hetkg-d", mp_config(epochs=1))
        r_sim = sim.train(split.train)
        mp = make_trainer("hetkg-d", mp_config(epochs=1))
        r_mp = mp.train_mp(
            split.train, schedule="sync", start_method="spawn"
        )
        _assert_identical(_fingerprint(sim, r_sim), _fingerprint(mp, r_mp))

    def test_telemetry_merge_matches_simulator(self, mp_data):
        from repro.core.telemetry import Telemetry

        _, split = mp_data
        sim = make_trainer("hetkg-d", mp_config(epochs=1))
        t_sim = Telemetry()
        sim.train(split.train, telemetry=t_sim)
        mp = make_trainer("hetkg-d", mp_config(epochs=1))
        t_mp = Telemetry()
        mp.train_mp(
            split.train,
            telemetry=t_mp,
            schedule="sync",
            start_method="fork",
        )
        assert len(t_mp.records) == len(t_sim.records)
        for a, b in zip(t_sim.records, t_mp.records):
            assert (a.worker, a.iteration, a.loss) == (
                b.worker,
                b.iteration,
                b.loss,
            )

    def test_second_call_continues_like_the_simulator(self, mp_data):
        """The children run the parent's workers as a first call left
        them, and report only the second call: mp-sync after ``train()``
        equals a second ``train()``."""
        _, split = mp_data
        sim = make_trainer("hetkg-d", mp_config())
        mp = make_trainer("hetkg-d", mp_config())
        sim.train(split.train)
        mp.train(split.train)
        r_sim = sim.train(split.train)
        r_mp = mp.train_mp(split.train, schedule="sync", start_method="fork")
        _assert_identical(_fingerprint(sim, r_sim), _fingerprint(mp, r_mp))


class TestWorkersComeBack:
    """Each child hands its advanced worker back, so ``train_mp`` is one
    more call on the trainer: whatever follows it continues from where
    the children left off, as after ``train()``."""

    def test_train_after_mp_equals_a_second_train(self, mp_data):
        _, split = mp_data
        cfg = mp_config(neg_cache="nscaching", filter_false_negatives=True)
        sim = make_trainer("hetkg-d", cfg)
        mp = make_trainer("hetkg-d", cfg)
        sim.train(split.train)
        mp.train_mp(split.train, schedule="sync", start_method="fork")
        r_sim = sim.train(split.train)
        r_mp = mp.train(split.train)
        _assert_identical(_fingerprint(sim, r_sim), _fingerprint(mp, r_mp))
        _assert_same_summary(r_sim, r_mp)

    def test_two_mp_calls_equal_two_trains(self, mp_data):
        _, split = mp_data
        sim = make_trainer("hetkg-d", mp_config())
        mp = make_trainer("hetkg-d", mp_config())
        for _ in range(2):
            r_sim = sim.train(split.train)
            r_mp = mp.train_mp(split.train, schedule="sync", start_method="fork")
            _assert_identical(_fingerprint(sim, r_sim), _fingerprint(mp, r_mp))
            _assert_same_summary(r_sim, r_mp)

    def test_parent_workers_match_the_simulators(self, mp_data):
        _, split = mp_data
        sim = make_trainer("hetkg-d", mp_config())
        mp = make_trainer("hetkg-d", mp_config())
        sim.train(split.train)
        mp.train_mp(split.train, schedule="sync", start_method="fork")
        assert len(mp.workers) == len(sim.workers)
        for ref, got in zip(sim.workers, mp.workers):
            assert got.stats() == ref.stats()
            assert got.sampler._cursor == ref.sampler._cursor
            assert np.array_equal(got.sampler._order, ref.sampler._order)
            for kind in ("entity", "relation"):
                assert np.array_equal(
                    got.cache.cached_ids(kind), ref.cache.cached_ids(kind)
                )


# ----------------------------------------------------------- async schedule


class TestAsyncSchedule:
    def test_smoke(self, mp_data):
        _, split = mp_data
        trainer = make_trainer("hetkg-d", mp_config())
        result = trainer.train_mp(
            split.train, schedule="async", start_method="fork"
        )
        assert result.backend == "mp/async"
        assert result.wall_time_s > 0
        assert len(result.history.points) == 2
        assert all(np.isfinite(p.loss) for p in result.history.points)
        assert len(result.worker_wall) == 2
        for span in result.worker_wall.values():
            assert span["steps"] > 0
            assert span["wall_s"] > 0

    def test_staleness_bound_validated(self, mp_data):
        _, split = mp_data
        trainer = make_trainer("hetkg-d", mp_config())
        with pytest.raises(MPUnsupportedError, match="staleness"):
            trainer.train_mp(split.train, schedule="async", staleness_bound=0)
        assert trainer.server is None  # rejected before any set-up

    def test_unknown_start_method_rejected(self, mp_data):
        _, split = mp_data
        trainer = make_trainer("hetkg-d", mp_config())
        with pytest.raises(ValueError, match="sporn"):
            trainer.train_mp(split.train, start_method="sporn")
        assert trainer.server is None

    def test_unknown_schedule_rejected(self, mp_data):
        _, split = mp_data
        trainer = make_trainer("hetkg-d", mp_config())
        with pytest.raises(MPUnsupportedError, match="schedule"):
            trainer.train_mp(split.train, schedule="bulk")

    @pytest.mark.parametrize("timeout_s", [0, -1.0])
    def test_non_positive_timeout_rejected(self, mp_data, timeout_s):
        """Bad input, not a worker crash: rejected before any set-up."""
        _, split = mp_data
        trainer = make_trainer("hetkg-d", mp_config())
        with pytest.raises(MPUnsupportedError, match="timeout_s"):
            trainer.train(split.train, backend="mp", timeout_s=timeout_s)
        assert trainer.server is None

    def test_tiered_backing_rejected(self, mp_data):
        _, split = mp_data
        trainer = make_trainer(
            "hetkg-d", mp_config(backing="tiered", memory_budget="1M")
        )
        with pytest.raises(MPUnsupportedError, match="tiered"):
            trainer.train_mp(split.train)


# --------------------------------------------------------- crash propagation


class TestCrashPropagation:
    def test_child_crash_raises_and_leaves_no_segments(self, mp_data):
        _, split = mp_data
        trainer = make_trainer("hetkg-d", mp_config(epochs=1))
        trainer.setup(split.train)
        workers = list(trainer.workers)
        before = [w.stats() for w in workers]
        with pytest.raises(MPWorkerCrashed, match="worker 1"):
            trainer.train_mp(
                split.train,
                schedule="async",
                start_method="fork",
                crash_at_step=(1, 5),
            )
        # No worker comes back unless every one does.
        assert len(trainer.workers) == len(workers)
        assert all(got is w for got, w in zip(trainer.workers, workers))
        assert [w.stats() for w in trainer.workers] == before
        # The autouse fixture asserts no /dev/shm residue; additionally
        # the trainer's tables must be private (not dangling shm views).
        trainer.server.store.table("entity")[0, 0] += 1.0  # must not raise


# ----------------------------------------------------- checkpoint round-trip


class TestCheckpointRoundTrip:
    def test_mp_checkpoint_resumes_in_sim(self, tmp_path, mp_data):
        """Embeddings trained under mp save/load like simulator state."""
        from repro.core.checkpoint import load_checkpoint, save_checkpoint

        _, split = mp_data
        mp = make_trainer("hetkg-d", mp_config(epochs=1))
        mp.train_mp(split.train, schedule="sync", start_method="fork")
        path = tmp_path / "mp.npz"
        save_checkpoint(mp, path)

        sim = make_trainer("hetkg-d", mp_config(epochs=1))
        sim.setup(split.train)
        load_checkpoint(sim, path)
        assert np.array_equal(
            sim.server.store.table("entity"), mp.server.store.table("entity")
        )
        assert np.array_equal(
            sim.server.store.table("relation"),
            mp.server.store.table("relation"),
        )


# ------------------------------------------------------------- mp serving


@pytest.fixture(scope="module")
def served_stream(mp_data):
    """A briefly trained store and a (warmup, measured) 400-query stream."""
    from repro.experiments.serving_study import split_warmup
    from repro.serving.store import EmbeddingStore
    from repro.serving.workload import WorkloadSpec, ZipfianWorkload

    graph, split = mp_data
    trainer = make_trainer("hetkg-d", mp_config(epochs=1))
    trainer.train(split.train)
    workload = ZipfianWorkload.from_graph(graph, WorkloadSpec(num_queries=400, seed=11))
    return EmbeddingStore.from_trainer(trainer), *split_warmup(workload.generate())


def _frontend(store, cache=None):
    """A frontend shaped like ``serve-bench``'s defaults."""
    from repro.serving.batcher import QueryBatcher
    from repro.serving.frontend import ServingFrontend

    return ServingFrontend(
        store, batcher=QueryBatcher(max_batch=32, max_wait=2e-3), cache=cache, byte_scale=25.0
    )


class TestServeMP:
    def test_replicas_cover_stream_exactly(self, served_stream):
        from repro.mp.serve import serve_mp
        from repro.serving.cache import ServingCache

        store, warmup, measured = served_stream
        result = serve_mp(
            _frontend(store, ServingCache.from_policy("static", 32, warmup)),
            measured,
            num_frontends=2,
            start_method="fork",
        )
        assert result.num_frontends == 2
        assert result.report.num_queries == len(measured)
        assert sum(r.num_queries for r in result.per_frontend) == len(measured)
        assert result.wall_time_s > 0
        assert result.wall_throughput > 0
        assert 0.0 <= result.report.hit_ratio <= 1.0
        assert result.report.latency_p50 <= result.report.latency_p99

    def test_one_replica_reports_what_one_frontend_does(self, served_stream):
        """The merged report of a single replica is the simulator's report
        of the same stream and cache, field for field (label aside)."""
        import dataclasses

        from repro.mp.serve import serve_mp
        from repro.serving.cache import ServingCache

        store, warmup, measured = served_stream
        merged = serve_mp(
            _frontend(store, ServingCache.from_policy("lru", 32, warmup)),
            measured,
            num_frontends=1,
            start_method="fork",
        ).report
        alone = _frontend(store, ServingCache.from_policy("lru", 32, warmup)).run(
            measured.queries
        )
        assert dataclasses.replace(merged, label=alone.label) == alone

    def test_merged_duration_spans_every_replica(self, served_stream):
        """Two replicas: ``duration`` runs from the first arrival to the
        last completion over both replicas' completions."""
        from repro.mp.serve import serve_mp

        store, _, measured = served_stream
        result = serve_mp(
            _frontend(store), measured, num_frontends=2, start_method="fork"
        )
        # Each replica replays its round-robin slice cache-off; replaying
        # the slices here yields the completions the replicas produced.
        completions = []
        for rank in range(2):
            frontend = _frontend(store)
            frontend.run(measured.queries[rank::2])
            completions += frontend.results
        first = min(r.arrival for r in completions)
        last = max(r.completion for r in completions)
        assert result.report.duration == last - first


# ------------------------------------------------------- wall-clock channel


class TestWallClockChannel:
    """The mp child's wall-clock counters, read off its ``PSChannel``."""

    def test_comm_calls_pinned(self, mp_data):
        """The worker's ``PSChannel`` times every PS call, the cache
        refresh's ``try_pull`` included; the counts are the ones captured
        when the refresh still reached the channel through ``pull``."""
        _, split = mp_data
        trainer = make_trainer("hetkg-d", mp_config())
        result = trainer.train_mp(split.train, schedule="sync", start_method="fork")
        walls = result.worker_wall
        assert {m: w["comm_calls"] for m, w in walls.items()} == {0: 1861, 1: 1858}
        assert all(w["comm_wall_s"] > 0 for w in walls.values())


# ------------------------------------------------------------- reconcile


class TestReconcile:
    def test_mp_report_fields(self, mp_data):
        from repro.obs import reconcile

        _, split = mp_data
        trainer = make_trainer("hetkg-d", mp_config(epochs=1))
        result = trainer.train_mp(
            split.train, schedule="sync", start_method="fork"
        )
        report = reconcile(result)
        assert report.backend == "mp/sync"
        assert len(report.workers) == 2
        for w in report.workers:
            assert w.wall_s > 0
            assert 0.0 <= w.predicted_comm_fraction <= 1.0
            assert 0.0 <= w.measured_comm_fraction <= 1.0
        text = report.to_text()
        assert "clock reconciliation" in text
        assert "worker m0" in text
        assert "worker m1" in text

    def test_sim_result_reconciles_without_workers(self, mp_data):
        from repro.obs import reconcile

        _, split = mp_data
        trainer = make_trainer("hetkg-d", mp_config(epochs=1))
        result = trainer.train(split.train)
        report = reconcile(result)
        assert report.workers == ()
        assert "simulator backend" in report.to_text()
