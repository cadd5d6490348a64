"""Tests for repro.faults: deterministic chaos, retry RPC, crash recovery."""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TrainingConfig
from repro.core.trainer import make_trainer
from repro.faults import (
    CheckpointManager,
    CrashEvent,
    DelayWindow,
    DropWindow,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    OutageWindow,
    PSChannel,
    RetryPolicy,
    ShardRecovery,
    StragglerWindow,
    export_events_csv,
)


def _config(**overrides) -> TrainingConfig:
    defaults = dict(
        epochs=2,
        dim=8,
        batch_size=32,
        num_negatives=4,
        cache_capacity=128,
        sync_period=4,
        num_machines=2,
        seed=0,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def _train(split, system="hetkg-d", **train_kwargs):
    trainer = make_trainer(system, _config())
    result = trainer.train(split.train, **train_kwargs)
    return trainer, result


# ---------------------------------------------------------------------- plans


class TestFaultPlan:
    def test_zero_plan(self):
        assert FaultPlan.none().is_zero
        assert FaultPlan(drops=(DropWindow(0.0),)).is_zero
        assert not FaultPlan.uniform_drop(0.1).is_zero
        assert FaultPlan.uniform_drop(0.0).is_zero

    def test_crash_and_outage_make_plan_nonzero(self):
        assert not FaultPlan(crashes=(CrashEvent(0, 5),)).is_zero
        assert not FaultPlan(outages=(OutageWindow(0, 1, 5),)).is_zero
        assert not FaultPlan(stragglers=(StragglerWindow(0, 2.0),)).is_zero

    def test_window_validation(self):
        with pytest.raises(ValueError, match="empty"):
            DropWindow(0.1, start=5, stop=5)
        with pytest.raises(ValueError, match="probability"):
            DropWindow(1.5)
        with pytest.raises(ValueError, match="slowdown"):
            StragglerWindow(0, 0.5)
        with pytest.raises(ValueError, match="crash iteration"):
            CrashEvent(0, 0)

    def test_duplicate_crash_rejected(self):
        with pytest.raises(ValueError, match="duplicate crash"):
            FaultPlan(crashes=(CrashEvent(1, 5), CrashEvent(1, 5)))

    def test_window_applies(self):
        w = DropWindow(0.5, start=10, stop=20, machines=(1,))
        assert w.applies(1, 10)
        assert w.applies(1, 19)
        assert not w.applies(1, 20)
        assert not w.applies(1, 9)
        assert not w.applies(0, 15)

    def test_retry_policy_backoff_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, max_backoff=0.3)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(5) == pytest.approx(0.3)

    def test_parse_full_grammar(self):
        plan = FaultPlan.parse(
            "seed=7,drop=0.2@10:200,delay=0.1x0.05@1:50,slow=w2x3.0@20:40,"
            "crash=w1@25,ps-out=0@30:40,retries=6,restart-delay=2.5"
        )
        assert plan.seed == 7
        assert plan.drops == (DropWindow(0.2, 10, 200),)
        assert plan.delays == (DelayWindow(0.1, 0.05, 1, 50),)
        assert plan.stragglers == (StragglerWindow(2, 3.0, 20, 40),)
        assert plan.crashes == (CrashEvent(1, 25),)
        assert plan.outages == (OutageWindow(0, 30, 40),)
        assert plan.retry.max_attempts == 6
        assert plan.restart_delay == 2.5

    def test_parse_defaults_and_empty(self):
        assert FaultPlan.parse("") == FaultPlan.none()
        plan = FaultPlan.parse("drop=0.05")
        assert plan.drops[0].start == 1 and plan.drops[0].stop is None

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("drop")
        with pytest.raises(ValueError):
            FaultPlan.parse("explode=1.0")
        with pytest.raises(ValueError):
            FaultPlan.parse("crash=w1")  # missing @iteration

    def test_parse_errors_name_the_clause(self):
        """Every parse failure must point at the offending clause."""
        for spec, clause in [
            ("drop=banana", "drop=banana"),
            ("seed=3,delay=0.1xfast", "delay=0.1xfast"),
            ("drop=0.1,slow=w2", "slow=w2"),
            ("drop=1.5", "drop=1.5"),  # out-of-range, not just unparsable
            ("drop=0.1@9:3", "drop=0.1@9:3"),  # empty window
            ("explode=1.0", "explode=1.0"),
        ]:
            with pytest.raises(ValueError, match="bad fault clause") as err:
                FaultPlan.parse(spec)
            assert clause in str(err.value)

    def test_parse_retries_with_timeout(self):
        plan = FaultPlan.parse("retries=4x0.004")
        assert plan.retry.max_attempts == 4
        assert plan.retry.timeout == pytest.approx(0.004)


# ------------------------------------------------------------- spec round-trip


def _windows(draw, st):
    start = draw(st.integers(min_value=1, max_value=50))
    stop = draw(st.one_of(st.none(), st.integers(min_value=start + 1, max_value=99)))
    return start, stop


@st.composite
def fault_plans(draw):
    """Grammar-expressible plans (the domain ``to_spec`` guarantees)."""
    probs = st.floats(
        min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
    )
    drops = tuple(
        DropWindow(draw(probs), *_windows(draw, st))
        for _ in range(draw(st.integers(0, 2)))
    )
    delays = tuple(
        DelayWindow(
            draw(probs),
            draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
            *_windows(draw, st),
        )
        for _ in range(draw(st.integers(0, 2)))
    )
    stragglers = tuple(
        StragglerWindow(
            draw(st.integers(0, 3)),
            draw(st.floats(min_value=1.0, max_value=10.0, allow_nan=False)),
            *_windows(draw, st),
        )
        for _ in range(draw(st.integers(0, 2)))
    )
    crash_keys = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 99)),
            max_size=2,
            unique=True,
        )
    )
    crashes = tuple(CrashEvent(m, i) for m, i in crash_keys)
    outages = tuple(
        OutageWindow(draw(st.integers(0, 3)), *_windows(draw, st))
        for _ in range(draw(st.integers(0, 2)))
    )
    retry = RetryPolicy(
        max_attempts=draw(st.integers(1, 9)),
        timeout=draw(st.floats(min_value=0.0, max_value=0.5, allow_nan=False)),
    )
    return FaultPlan(
        seed=draw(st.integers(0, 1000)),
        drops=drops,
        delays=delays,
        stragglers=stragglers,
        crashes=crashes,
        outages=outages,
        retry=retry,
        restart_delay=draw(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
        ),
    )


class TestFaultSpecRoundTrip:
    """``FaultPlan.to_spec`` is the exact inverse of ``parse``."""

    @given(plan=fault_plans())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, plan):
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_round_trip_canonical_example(self):
        spec = (
            "seed=7,retries=4x0.004,restart-delay=2.5,drop=0.3@9:40,"
            "delay=0.1x0.05@1:50,slow=w1x2.5@20:,crash=w0@25,ps-out=0@5:8"
        )
        plan = FaultPlan.parse(spec)
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_none_plan_renders_empty(self):
        assert FaultPlan.none().to_spec() == ""
        assert FaultPlan.parse("") == FaultPlan.none()

    def test_inexpressible_plans_raise(self):
        scoped = FaultPlan(drops=(DropWindow(0.1, machines=(1,)),))
        with pytest.raises(ValueError, match="no --faults spelling"):
            scoped.to_spec()
        exotic = FaultPlan(retry=RetryPolicy(backoff_base=0.123))
        with pytest.raises(ValueError, match="cannot express"):
            exotic.to_spec()
        slow_disk = FaultPlan(recovery_bandwidth=1e6)
        with pytest.raises(ValueError, match="no --faults spelling"):
            slow_disk.to_spec()


# ------------------------------------------------------------------- injector


class TestFaultInjector:
    def test_no_window_no_draw(self):
        injector = FaultInjector(FaultPlan.none())
        assert not injector.should_drop(0, 1)
        # A zero plan must never materialise a stream.
        assert injector._streams == {}

    def test_deterministic_streams(self):
        plan = FaultPlan.uniform_drop(0.5, seed=9)
        a, b = FaultInjector(plan), FaultInjector(plan)
        draws_a = [a.should_drop(0, 1) for _ in range(50)]
        draws_b = [b.should_drop(0, 1) for _ in range(50)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_per_machine_streams_independent(self):
        plan = FaultPlan.uniform_drop(0.5, seed=9)
        a, b = FaultInjector(plan), FaultInjector(plan)
        # Machine 1's draws must not depend on how many machine 0 made.
        for _ in range(17):
            a.should_drop(0, 1)
        assert [a.should_drop(1, 1) for _ in range(20)] == [
            b.should_drop(1, 1) for _ in range(20)
        ]

    def test_crash_fires_once(self):
        injector = FaultInjector(FaultPlan(crashes=(CrashEvent(1, 5),)))
        assert not injector.crash_due(1, 4)
        assert injector.crash_due(1, 5)
        assert not injector.crash_due(1, 5)
        assert injector.stats.crashes == 1

    def test_straggler_factor(self):
        injector = FaultInjector(
            FaultPlan(stragglers=(StragglerWindow(1, 3.0, 10, 20),))
        )
        assert injector.straggler_factor(1, 15) == 3.0
        assert injector.straggler_factor(1, 25) == 1.0
        assert injector.straggler_factor(0, 15) == 1.0

    def test_ps_unavailable(self):
        injector = FaultInjector(FaultPlan(outages=(OutageWindow(0, 5, 10),)))
        assert injector.ps_unavailable([0, 1], 5)
        assert not injector.ps_unavailable([1], 5)
        assert not injector.ps_unavailable([0], 10)


# ------------------------------------------------------------ channel (unit)


@pytest.fixture
def cluster(small_split):
    """A set-up 2-machine trainer exposing its server for channel tests."""
    trainer = make_trainer("hetkg-d", _config())
    trainer.setup(small_split.train)
    return trainer


def _channel(cluster, plan, clock=None):
    from repro.utils.simclock import SimClock

    injector = FaultInjector(plan) if plan is not None else None
    machine = cluster.workers[0].machine
    return PSChannel(cluster.server, machine, clock or SimClock(), injector)


class TestPSChannel:
    @pytest.mark.parametrize(
        "plan", [None, FaultPlan.none()], ids=["no-injector", "zero-plan"]
    )
    def test_transparent_when_no_faults(self, cluster, plan):
        from repro.utils.simclock import SimClock

        clock = SimClock()
        channel = _channel(cluster, plan, clock)
        channel.iteration = 1
        ids = np.array([0, 1, 2])
        direct_rows, direct_comm = cluster.server.pull("entity", ids, 0)
        rows, comm = channel.pull("entity", ids)
        np.testing.assert_array_equal(rows, direct_rows)
        assert comm == direct_comm
        assert clock.elapsed == 0.0


class TestFaultyPSChannel:
    """``PSChannel`` with an injector whose plan fires."""

    def test_certain_drop_forces_pull_through(self, cluster):
        from repro.utils.simclock import SimClock

        clock = SimClock()
        plan = FaultPlan(
            drops=(DropWindow(1.0),), retry=RetryPolicy(max_attempts=3)
        )
        channel = _channel(cluster, plan, clock)
        channel.iteration = 1
        rows, comm = channel.pull("entity", np.array([0, 1]))
        assert rows is not None
        assert channel.injector.stats.retries == 3
        assert channel.injector.stats.forced_pulls == 1
        assert comm.retransmit_bytes > 0
        assert clock.category("communication") > 0.0

    def test_try_pull_gives_up(self, cluster):
        plan = FaultPlan(
            drops=(DropWindow(1.0),), retry=RetryPolicy(max_attempts=2)
        )
        channel = _channel(cluster, plan)
        channel.iteration = 1
        rows, comm = channel.try_pull("entity", np.array([0, 1]))
        assert rows is None
        assert comm.retransmit_bytes > 0
        assert channel.injector.stats.stale_overruns == 1

    def test_push_dropped_on_budget_exhaustion(self, cluster):
        plan = FaultPlan(
            drops=(DropWindow(1.0),), retry=RetryPolicy(max_attempts=2)
        )
        channel = _channel(cluster, plan)
        channel.iteration = 1
        ids = np.array([0, 1])
        before = cluster.server.store.read("entity", ids)
        channel.push("entity", ids, np.ones((2, 8)))
        np.testing.assert_array_equal(cluster.server.store.read("entity", ids), before)
        assert channel.injector.stats.lost_pushes == 1

    def test_outage_is_deterministic_per_attempt(self, cluster):
        plan = FaultPlan(
            outages=(OutageWindow(0, 1, 5),), retry=RetryPolicy(max_attempts=2)
        )
        channel = _channel(cluster, plan)
        channel.iteration = 1
        ids = cluster.server.store.owned_ids("entity", 0)[:3]
        rows, _ = channel.try_pull("entity", ids)
        assert rows is None  # shard 0 down, budget exhausts deterministically
        channel.iteration = 5  # window closed
        rows, comm = channel.try_pull("entity", ids)
        assert rows is not None
        assert comm.retransmit_bytes == 0


# --------------------------------------------------------- training invariant


class TestNoOpInvariant:
    def test_zero_plan_reproduces_injector_free_run(self, small_split):
        _, plain = _train(small_split)
        _, zero = _train(small_split, faults=FaultPlan.none())
        assert zero.sim_time == plain.sim_time
        assert zero.compute_time == plain.compute_time
        assert zero.communication_time == plain.communication_time
        assert zero.comm_totals == plain.comm_totals
        assert [p.loss for p in zero.history.points] == [
            p.loss for p in plain.history.points
        ]

    def test_zero_plan_dglke(self, small_split):
        _, plain = _train(small_split, system="dglke")
        _, zero = _train(small_split, system="dglke", faults=FaultPlan.none())
        assert zero.sim_time == plain.sim_time
        assert zero.comm_totals == plain.comm_totals

    def test_fault_run_then_clean_run_uninstalls_channel(self, small_split):
        trainer = make_trainer("hetkg-d", _config())
        trainer.train(small_split.train, faults=FaultPlan.uniform_drop(0.2, seed=1))
        assert trainer.workers[0].server.injector is not None
        trainer.train(small_split.train)  # no faults: the injector must come off
        for worker in trainer.workers:
            assert worker.server.injector is None
            assert worker.server.server is trainer.server
            assert worker.cache.server is worker.server


    def test_plan_naming_an_absent_machine_is_rejected(self, small_split):
        """Regression: a crash of a machine the cluster lacks never fired
        and the run ended as if fault-free."""
        trainer = make_trainer("hetkg-d", _config())
        with pytest.raises(ValueError, match="'crash=w2@3': machine 2 is not in a cluster of 2"):
            trainer.train(small_split.train, faults=FaultPlan.parse("crash=w2@3"))

    def test_online_train_after_fault_run_talks_to_ps(self, small_graph):
        """Regression: ``OnlineTrainer.train`` never took an earlier call's
        fault channels off, so it trained through the old injector."""
        from repro.stream import EventStream, OnlineTrainer

        trainer = make_trainer("hetkg-d", _config(epochs=1))
        trainer.train(small_graph, faults=FaultPlan.uniform_drop(0.2, seed=1))
        OnlineTrainer(trainer, EventStream(updates=[])).train(small_graph)
        for worker in trainer.workers:
            assert worker.server.injector is None
            assert worker.server.server is trainer.server
            assert worker.cache.server is worker.server
            assert worker.faults is None


class TestChaosDeterminism:
    PLAN = FaultPlan(
        seed=3,
        drops=(DropWindow(0.1),),
        crashes=(CrashEvent(1, 5),),
        outages=(OutageWindow(0, 8, 11),),
    )

    def test_bit_identical_across_runs(self, small_split):
        _, a = _train(small_split, faults=self.PLAN, checkpoint_every=4)
        _, b = _train(small_split, faults=self.PLAN, checkpoint_every=4)
        assert a.sim_time == b.sim_time
        assert a.compute_time == b.compute_time
        assert a.communication_time == b.communication_time
        assert a.comm_totals == b.comm_totals
        assert a.fault_stats == b.fault_stats
        assert [p.loss for p in a.history.points] == [
            p.loss for p in b.history.points
        ]

    #: The run's incident log, captured before the log moved from
    #: ``Telemetry`` to the injector: ``(worker, iteration, kind,
    #: sim_time.hex(), detail)`` for all 407 events, as the sha256 of its
    #: JSON, and every event that is not a retry spelled out.
    EVENTS = 407
    EVENTS_SHA256 = "fb08735f98ff4976f62e97b45c840d09bed852783fb0a5e2e999226692cd412e"
    NON_RETRY_EVENTS = [
        (1, 5, "crash_restart", "0x1.11e96aa349bb2p+0", "restored 254400 B"),
        (0, 8, "stale_overrun", "0x1.c956660d0516dp-1", "entity x32"),
        (0, 8, "stale_overrun", "0x1.7821a27788473p+0", "relation x96"),
        (0, 8, "forced_pull", "0x1.07043c75828e7p+1", "entity x29"),
        (0, 8, "forced_pull", "0x1.5682b551a7211p+1", "relation x3"),
        (0, 8, "lost_push", "0x1.a80da7437463fp+1", "entity x44"),
        (0, 8, "lost_push", "0x1.f2542f81ca658p+1", "relation x23"),
        (1, 8, "stale_overrun", "0x1.b5b13cb4e3d81p+0", "entity x32"),
        (1, 8, "stale_overrun", "0x1.23901ec3576f0p+1", "relation x96"),
        (1, 8, "forced_pull", "0x1.6d190c2d3d3e8p+1", "entity x30"),
        (1, 8, "lost_push", "0x1.bd1b33b5bf633p+1", "entity x44"),
        (1, 8, "lost_push", "0x1.0333ec3618e5bp+2", "relation x20"),
        (0, 9, "stale_overrun", "0x1.1e058b5194a58p+2", "entity x32"),
        (0, 9, "stale_overrun", "0x1.42ef382179076p+2", "relation x96"),
        (0, 9, "forced_pull", "0x1.68bc56a78c113p+2", "entity x31"),
        (0, 9, "forced_pull", "0x1.906707ee7dc5dp+2", "relation x3"),
        (0, 9, "lost_push", "0x1.b8eb8b23ded72p+2", "entity x47"),
        (0, 9, "lost_push", "0x1.dd4c18e7794fcp+2", "relation x24"),
        (1, 9, "stale_overrun", "0x1.2898ec87457fap+2", "entity x32"),
        (1, 9, "stale_overrun", "0x1.4d173a2b27565p+2", "relation x96"),
        (1, 9, "forced_pull", "0x1.72500cb30fd1dp+2", "entity x30"),
        (1, 9, "lost_push", "0x1.9a8165490294cp+2", "entity x49"),
        (1, 9, "lost_push", "0x1.bee5fe3061b58p+2", "relation x19"),
        (0, 10, "stale_overrun", "0x1.00edc5505b0f7p+3", "entity x32"),
        (0, 10, "stale_overrun", "0x1.13449bf345640p+3", "relation x96"),
        (0, 10, "forced_pull", "0x1.25ce13857cd81p+3", "entity x35"),
        (0, 10, "lost_push", "0x1.3c1f4e6bf2dd9p+3", "entity x49"),
        (0, 10, "lost_push", "0x1.4e73bf1958997p+3", "relation x21"),
        (1, 10, "stale_overrun", "0x1.e368a4011e26bp+2", "entity x32"),
        (1, 10, "stale_overrun", "0x1.04106542df2f3p+3", "relation x96"),
        (1, 10, "forced_pull", "0x1.167bfd7f9f241p+3", "entity x35"),
        (1, 10, "forced_pull", "0x1.2ac8b12bac526p+3", "relation x1"),
        (1, 10, "lost_push", "0x1.3ea5ea565b4bbp+3", "entity x50"),
        (1, 10, "lost_push", "0x1.5137640c181e7p+3", "relation x22"),
    ]

    def test_fault_overhead_is_visible_everywhere(self, small_split):
        _, clean = _train(small_split)
        _, chaotic = _train(small_split, faults=self.PLAN, checkpoint_every=4)
        stats = chaotic.fault_stats
        assert stats["retries"] >= 1
        assert stats["recoveries"] == 1
        assert stats["crashes"] == 1
        # SimClock communication breakdown carries the retry waits.
        assert chaotic.communication_time > clean.communication_time
        assert chaotic.sim_time > clean.sim_time
        # CommRecord totals carry the wasted attempts.
        assert chaotic.comm_totals.retransmit_bytes > 0
        assert chaotic.comm_totals.remote_bytes > clean.comm_totals.remote_bytes
        # The injector's log carries every incident, once: the same
        # sequence as before the move, and the same counts as fault_stats.
        assert all(isinstance(e, FaultEvent) for e in chaotic.fault_events)
        events = [
            (e.worker, e.iteration, e.kind, float(e.sim_time).hex(), e.detail)
            for e in chaotic.fault_events
        ]
        assert len(events) == self.EVENTS
        assert [e for e in events if e[2] != "retry"] == self.NON_RETRY_EVENTS
        digest = hashlib.sha256(json.dumps(events).encode()).hexdigest()
        assert digest == self.EVENTS_SHA256
        kinds = Counter(e.kind for e in chaotic.fault_events)
        assert kinds == {
            "retry": stats["retries"],
            "forced_pull": stats["forced_pulls"],
            "stale_overrun": stats["stale_overruns"],
            "lost_push": stats["lost_pushes"],
            "crash_restart": stats["recoveries"],
        }

    def test_losses_stay_finite_under_chaos(self, small_split):
        _, chaotic = _train(small_split, faults=self.PLAN, checkpoint_every=4)
        assert all(np.isfinite(p.loss) for p in chaotic.history.points)


# ------------------------------------------------------------- crash recovery


class TestCrashRecovery:
    def test_recovery_rewinds_only_the_dead_shard(self, small_split):
        trainer = make_trainer("hetkg-d", _config())
        trainer.setup(small_split.train)
        checkpoints = CheckpointManager(trainer)
        snap = checkpoints.snapshot(step=0)
        store = trainer.server.store
        # Mutate everything after the snapshot.
        store.table("entity")[:] += 1.0
        survivors_before = store.table("entity").copy()
        recovery = ShardRecovery(trainer.server, checkpoints)
        restored = recovery.restore(machine=1)
        assert restored > 0
        dead = store.owned_ids("entity", 1)
        alive = store.owned_ids("entity", 0)
        np.testing.assert_array_equal(
            store.table("entity")[dead], snap.arrays["entity"][dead]
        )
        np.testing.assert_array_equal(
            store.table("entity")[alive], survivors_before[alive]
        )

    def test_restore_without_snapshot_is_harmless(self, small_split):
        trainer = make_trainer("hetkg-d", _config())
        trainer.setup(small_split.train)
        checkpoints = CheckpointManager(trainer)
        recovery = ShardRecovery(trainer.server, checkpoints)
        before = trainer.server.store.table("entity").copy()
        assert recovery.restore(machine=0) == 0
        np.testing.assert_array_equal(trainer.server.store.table("entity"), before)

    def test_crash_loses_and_rebuilds_cache(self, small_split):
        plan = FaultPlan(crashes=(CrashEvent(1, 3),))
        trainer, result = _train(small_split, faults=plan, checkpoint_every=2)
        crashed = next(w for w in trainer.workers if w.machine == 1)
        restarts = [e for e in result.fault_events if e.kind == "crash_restart"]
        assert [(e.worker, e.iteration) for e in restarts] == [(1, 3)]
        # The hot table was rebuilt after invalidation (non-empty again).
        assert len(crashed.cache.cached_ids("entity")) > 0
        # Recovery time landed on the crashed worker's clock.
        assert crashed.clock.category("recovery") > 0.0
        assert result.fault_stats["recovery_time"] > 0.0

    def test_checkpoint_cadence(self, small_split):
        trainer = make_trainer("hetkg-d", _config())
        trainer.setup(small_split.train)
        checkpoints = CheckpointManager(trainer, every=3)
        fired = [step for step in range(1, 10) if checkpoints.maybe_snapshot(step)]
        assert fired == [3, 6, 9]
        assert checkpoints.saves == 3
        with pytest.raises(ValueError, match="interval"):
            CheckpointManager(trainer, every=0)


# -------------------------------------------------------- graceful degradation


class TestDegradedPS:
    def test_outage_triggers_stale_overruns(self, small_split):
        # Shards 0 and 1 both unavailable over a window longer than P, so
        # periodic syncs must degrade and the overrun must be recorded.
        plan = FaultPlan(
            outages=(OutageWindow(0, 5, 12), OutageWindow(1, 5, 12)),
            retry=RetryPolicy(max_attempts=2, timeout=0.01),
        )
        trainer, result = _train(small_split, faults=plan)
        assert result.fault_stats["stale_overruns"] >= 1
        overruns = [w.cache.staleness_overruns for w in trainer.workers]
        assert sum(overruns) >= 1
        worst = max(w.cache.max_staleness_overrun for w in trainer.workers)
        assert worst >= 1

    def test_outage_can_lose_pushes(self, small_split):
        plan = FaultPlan(
            outages=(OutageWindow(0, 3, 9), OutageWindow(1, 3, 9)),
            retry=RetryPolicy(max_attempts=2, timeout=0.01),
        )
        _, result = _train(small_split, faults=plan)
        assert result.fault_stats["lost_pushes"] >= 1
        assert all(np.isfinite(p.loss) for p in result.history.points)


# ------------------------------------------------------------------ event log


class TestFaultTelemetry:
    def test_event_log_and_export(self, tmp_path):
        injector = FaultInjector(FaultPlan.none())
        injector.record("retry", 0, 3, 0.5, "entity attempt 1")
        injector.record("crash_restart", 1, 7, 2.0)
        assert injector.events == [
            FaultEvent(0, 3, "retry", 0.5, "entity attempt 1"),
            FaultEvent(1, 7, "crash_restart", 2.0),
        ]
        assert (injector.stats.retries, injector.stats.recoveries) == (1, 1)
        out = tmp_path / "events.csv"
        export_events_csv(injector.events, out)
        assert out.read_bytes() == (
            b"worker,iteration,kind,sim_time,detail\r\n"
            b"0,3,retry,0.5,entity attempt 1\r\n"
            b"1,7,crash_restart,2.0,\r\n"
        )

    def test_fault_free_run_has_no_events(self, small_split):
        _, result = _train(small_split)
        assert result.fault_events == []
        assert result.fault_stats == {}


# ------------------------------------------------------------------ chaos smoke


class TestChaosSmoke:
    def test_drop_and_crash_degrade_gracefully(self):
        """Train under drops and a crash on the CI smoke configuration:
        losses stay finite, retries and a recovery happen, and the event
        log agrees with the counters (one book of incidents)."""
        import math

        from repro.kg.datasets import generate_dataset
        from repro.kg.splits import split_triples

        graph = generate_dataset("fb15k", scale=0.02, seed=0)
        split = split_triples(graph, seed=0)
        config = TrainingConfig(
            model="transe", dim=8, epochs=2, batch_size=64,
            num_negatives=4, num_machines=2, cache_strategy="dps",
            cache_capacity=256, sync_period=4, seed=0,
        )
        plan = FaultPlan.parse("drop=0.15,crash=w1@5,seed=3")
        trainer = make_trainer("hetkg-d", config)
        result = trainer.train(split.train, faults=plan, checkpoint_every=4)
        stats = result.fault_stats
        losses = result.history.losses()
        assert losses and all(math.isfinite(l) for l in losses), losses
        assert stats["retries"] >= 1, stats
        assert stats["recoveries"] >= 1, stats
        assert result.comm_totals.retransmit_bytes > 0, result.comm_totals
        kinds = Counter(event.kind for event in result.fault_events)
        assert result.fault_events, "no fault events logged"
        assert kinds["retry"] == stats["retries"], (kinds, stats)
        assert kinds["crash_restart"] == stats["recoveries"], (kinds, stats)
