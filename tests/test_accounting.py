"""Accounting conservation tests: the simulation's books must balance.

Each count has one book — bytes on the machine whose clock paid for them,
time on that clock — and every report (result totals, telemetry rows,
epoch histories) is derived from those books; these tests assert the
derivations agree.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from repro.core.baselines import PBGTrainer
from repro.core.config import TrainingConfig
from repro.core.telemetry import Telemetry
from repro.core.trainer import HETKGTrainer
from repro.kg.graph import KnowledgeGraph
from repro.stream import EventStream, OnlineTrainer, make_stream


def config(**overrides):
    defaults = dict(
        model="transe", dim=8, epochs=2, batch_size=16, num_negatives=4,
        num_machines=2, cache_strategy="dps", cache_capacity=64,
        dps_window=4, sync_period=4, seed=1,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


@pytest.fixture(scope="module")
def run(small_split):
    telemetry = Telemetry()
    trainer = HETKGTrainer(config())
    result = trainer.train(small_split.train, telemetry=telemetry)
    return trainer, result, telemetry


class TestClockConservation:
    def test_every_worker_clock_decomposes(self, run):
        trainer, _, _ = run
        for worker in trainer.workers:
            total = worker.clock.elapsed
            parts = sum(worker.clock.by_category.values())
            assert total == pytest.approx(parts)

    def test_result_uses_slowest_worker(self, run):
        trainer, result, _ = run
        slowest = max(w.clock.elapsed for w in trainer.workers)
        assert result.sim_time == slowest

    def test_history_time_matches_final_clock(self, run):
        trainer, result, _ = run
        assert result.history.points[-1].sim_time == result.sim_time


class TestByteConservation:
    def test_telemetry_bytes_bounded_by_network_totals(self, run):
        """Telemetry records step traffic only (no install/start traffic),
        so its total must be <= the run's comm totals, and close to
        them."""
        trainer, result, telemetry = run
        step_remote = sum(r.remote_bytes for r in telemetry.records)
        total_remote = result.comm_totals.remote_bytes
        assert step_remote <= total_remote
        assert step_remote > 0.5 * total_remote  # installs are the minority

    def test_worker_books_sum_to_comm_totals(self, run):
        """A first ``train()`` call's totals are exactly the per-machine
        books summed (every ``CommRecord`` field is an int)."""
        trainer, result, _ = run
        for field in ("local_bytes", "remote_bytes", "local_messages",
                      "remote_messages", "retransmit_bytes"):
            books = sum(getattr(w.comm, field) for w in trainer.workers)
            assert books == getattr(result.comm_totals, field), field
        assert result.comm_totals.total_bytes > 0

    def test_network_totals_cover_both_directions(self, run):
        """Pull and push both meter; total bytes must exceed either
        direction alone (sanity against double-free accounting)."""
        trainer, result, telemetry = run
        assert result.comm_totals.total_bytes > result.comm_totals.remote_bytes

    def test_byte_scale_multiplies_traffic(self, small_split):
        """Doubling wire_dim must exactly double metered bytes for the
        same seeded run."""
        a = HETKGTrainer(config(wire_dim=160)).train(small_split.train)
        b = HETKGTrainer(config(wire_dim=320)).train(small_split.train)
        assert b.comm_totals.remote_bytes == pytest.approx(
            2 * a.comm_totals.remote_bytes, rel=1e-6
        )

    def test_identical_math_regardless_of_wire_dim(self, small_split):
        """wire_dim only affects the cost models — losses and metrics must
        be bit-identical across wire dims."""
        a = HETKGTrainer(config(wire_dim=160)).train(small_split.train)
        b = HETKGTrainer(config(wire_dim=None)).train(small_split.train)
        assert a.history.losses() == b.history.losses()


class TestStatsConservation:
    def test_worker_hits_equal_telemetry_hits(self, run):
        trainer, _, telemetry = run
        for worker in trainer.workers:
            recorded_hits = sum(
                r.cache_hits for r in telemetry.for_worker(worker.machine)
            )
            recorded_misses = sum(
                r.cache_misses for r in telemetry.for_worker(worker.machine)
            )
            stats = worker.cache.combined_stats()
            assert stats.hits == recorded_hits
            assert stats.misses == recorded_misses

    def test_epoch_iterations_balanced(self, run):
        trainer, result, _ = run
        counts = {w.iterations for w in trainer.workers}
        assert len(counts) == 1  # round-robin keeps workers in lock-step


class TestRepeatedTrainCalls:
    """Each ``train()`` call must report only its own time and traffic.

    Regression: the trainer charged into process-lifetime clocks and the
    network's global byte tables without snapshotting them per call, so a
    second ``train()`` on the same trainer reported roughly double the
    traffic and simulated time of the first.
    """

    @staticmethod
    def _two_entity_graph():
        """Every batch touches exactly entities {0, 1} and relation {0},
        so per-step communication is *identical* across calls even though
        the sampler's rng state advances between them."""
        triples = np.asarray([(0, 0, 1), (1, 0, 0)])
        return KnowledgeGraph(triples, num_entities=2, num_relations=1)

    def test_second_train_reports_equal_totals(self):
        graph = self._two_entity_graph()
        trainer = HETKGTrainer(
            config(
                cache_strategy="none", partitioner="random", batch_size=2,
                num_negatives=2,
            )
        )
        first = trainer.train(graph)
        second = trainer.train(graph)
        assert second.comm_totals.remote_bytes == first.comm_totals.remote_bytes
        assert second.comm_totals.total_bytes == first.comm_totals.total_bytes
        assert second.comm_totals.total_messages == first.comm_totals.total_messages
        assert second.sim_time == pytest.approx(first.sim_time)
        assert second.communication_time == pytest.approx(
            first.communication_time
        )

    def test_second_train_not_cumulative_with_cache(self, small_split):
        """With a DPS cache batches differ across calls (rng advances), so
        assert the second call is *close to* the first — not ~2x it."""
        trainer = HETKGTrainer(config())
        first = trainer.train(small_split.train)
        second = trainer.train(small_split.train)
        assert second.comm_totals.total_bytes < 1.5 * first.comm_totals.total_bytes
        assert second.sim_time < 1.5 * first.sim_time
        assert second.history.points[-1].sim_time == pytest.approx(
            second.sim_time
        )

    def test_second_train_hit_ratio_is_per_call(self, small_split):
        """Regression: the second call reported the workers' *lifetime*
        hit ratio, while its time and traffic were already per-call."""
        trainer = HETKGTrainer(config())
        trainer.train(small_split.train)
        before = [w.cache.combined_stats() for w in trainer.workers]
        second = trainer.train(small_split.train)
        own = []
        for worker, then in zip(trainer.workers, before):
            now = worker.cache.combined_stats()
            hits, misses = now.hits - then.hits, now.misses - then.misses
            own.append(hits / (hits + misses))
        lifetime = np.mean([w.stats().cache_hit_ratio for w in trainer.workers])
        assert second.cache_hit_ratio == float(np.mean(own))
        assert second.cache_hit_ratio != lifetime

    def test_second_online_train_neg_cache_stats_are_per_call(self, small_graph):
        """Regression: ``OnlineTrainer.train`` summed the neg-cache lifetime
        counters and refresh traffic; only the two key counts are gauges."""
        trainer = HETKGTrainer(config(neg_cache="nscaching", epochs=1))
        online = OnlineTrainer(trainer, EventStream(updates=[]))
        first = online.train(small_graph).neg_cache_stats
        counters = [w.neg_cache.counters() for w in trainer.workers]
        comm = [w.neg_cache_comm.copy() for w in trainer.workers]
        second = online.train(small_graph).neg_cache_stats
        assert first["refreshes"] > 0
        for name in ("refreshes", "refreshed_keys", "candidates_scored"):
            assert second[name] == sum(
                w.neg_cache.counters()[name] - then[name]
                for w, then in zip(trainer.workers, counters)
            )
        assert second["refresh_bytes"] == sum(
            w.neg_cache_comm.difference(then).total_bytes
            for w, then in zip(trainer.workers, comm)
        )
        assert second["cache_keys"] == sum(
            w.neg_cache.num_keys for w in trainer.workers
        )
        assert second["pending_keys"] == sum(
            w.neg_cache.pending_keys for w in trainer.workers
        )

    def test_second_online_train_reports_only_itself(self, small_graph):
        """Regression: a second ``OnlineTrainer.train`` reported the ingest
        counters and ADAPTIVE rebuilds of both calls, and returned the
        first call's prequential result, which it then kept appending to."""
        trainer = HETKGTrainer(config(cache_strategy="adaptive", epochs=1))
        trainer.setup(small_graph)
        stream = make_stream(
            "rotation", small_graph, steps=trainer.steps_per_epoch, seed=5,
            interval=2, inserts_per_update=16,
        )
        online = OnlineTrainer(trainer, stream, eval_every=4)
        first = online.train(small_graph)
        first_points = list(first.prequential.points)
        rebuilds = sum(w.strategy.rebuilds for w in trainer.workers)
        second = online.train(small_graph)  # the stream is used up
        assert first.updates_applied == len(stream.updates) > 0
        assert first.entities_added > 0 and first.cache_rows_invalidated > 0
        for name in (
            "updates_applied", "triples_inserted", "triples_deleted",
            "entities_added", "relations_added", "cache_rows_invalidated",
            "neg_cache_keys_invalidated",
        ):
            assert getattr(second, name) == 0, name
        assert second.adaptive_rebuilds == (
            sum(w.strategy.rebuilds for w in trainer.workers) - rebuilds
        )
        assert first.prequential.points == first_points
        assert second.prequential.points
        assert online.evaluator.result.points == (
            first_points + second.prequential.points
        )

    def test_second_online_train_grows_each_id_once(self, small_graph):
        """Regression: ``_grow_vocab`` measured each update against the
        graph ``train()`` had just reset, so a second call minted rows for
        every id the first call had already added."""
        trainer = HETKGTrainer(config(epochs=1))
        trainer.setup(small_graph)
        stream = make_stream(
            "rotation", small_graph, steps=4 * trainer.steps_per_epoch,
            seed=5, interval=2, inserts_per_update=16,
        )
        online = OnlineTrainer(trainer, stream)
        first = online.train(small_graph)
        second = online.train(small_graph)
        assert first.entities_added > 0 and second.updates_applied > 0
        last = stream.updates[online._cursor - 1]
        added = last.num_entities - small_graph.num_entities
        assert first.entities_added + second.entities_added == added
        store = trainer.server.store
        assert len(store.table("entity")) == online.graph.num_entities == (
            last.num_entities
        )
        assert len(store.table("relation")) == last.num_relations
        for kind in ("entity", "relation"):
            assert trainer.server.optimizer.state[kind].shape == (
                store.table(kind).shape
            )

    @pytest.mark.parametrize("filter_false_negatives", [False, True])
    def test_second_online_train_continues_the_global_graph(
        self, small_graph, filter_false_negatives
    ):
        """Regression: a second ``OnlineTrainer.train`` restarted the global
        graph from ``train_graph``, dropping the edits the first call had
        applied while the workers' local graphs kept them."""
        trainer = HETKGTrainer(
            config(
                cache_strategy="adaptive", epochs=1,
                filter_false_negatives=filter_false_negatives,
            )
        )
        trainer.setup(small_graph)
        stream = make_stream(
            "rotation", small_graph, steps=4 * trainer.steps_per_epoch,
            seed=5, interval=2, inserts_per_update=16,
        )
        online = OnlineTrainer(trainer, stream)
        online.train(small_graph)
        online.train(small_graph)

        def rows(triples):
            return sorted(map(tuple, np.asarray(triples).tolist()))

        local = np.concatenate([w.sampler.graph.triples for w in trainer.workers])
        assert rows(online.graph.triples) == rows(local)

    def test_pbg_second_train_reports_equal_totals(self):
        graph = self._two_entity_graph()
        trainer = PBGTrainer(
            config(
                cache_strategy="none", partitioner="random", batch_size=2,
                num_negatives=2, pbg_partitions=2,
            )
        )
        first = trainer.train(graph)
        second = trainer.train(graph)
        assert second.comm_totals.remote_bytes == first.comm_totals.remote_bytes
        assert second.comm_totals.total_messages == first.comm_totals.total_messages
        assert second.sim_time == pytest.approx(first.sim_time)


class TestPBGGolden:
    """PBG on the golden config, beyond what the ``pbg`` entry of
    ``tests/golden/train_golden.json`` pins (its comm totals and sim time
    under a ``train()`` that evaluates): PBG retransmits nothing
    (``retransmit_bytes == 0``), and a ``train()`` without evaluation
    reaches the golden's sim time, so evaluating adds none."""

    def test_comm_totals_and_sim_time(self):
        path = pathlib.Path(__file__).parent / "golden" / "capture.py"
        spec = importlib.util.spec_from_file_location("golden_capture", path)
        capture = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(capture)
        from repro.kg.datasets import generate_dataset
        from repro.kg.splits import split_triples

        split = split_triples(generate_dataset("fb15k", scale=0.02, seed=3), seed=3)
        result = PBGTrainer(capture.golden_config()).train(split.train)
        comm = result.comm_totals
        assert (
            comm.local_bytes, comm.remote_bytes, comm.local_messages,
            comm.remote_messages, comm.retransmit_bytes,
        ) == (0, 426835200, 0, 1472, 0)
        assert float(result.sim_time).hex() == "0x1.c3fe7ac4c23f3p+1"
