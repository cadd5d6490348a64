"""End-to-end tracing tests: spans must reconcile with the cost models.

The tracer observes the same simulated events as the per-worker
``SimClock`` instances, so per-category span totals on each worker's
track must equal the clock's category breakdown exactly (the acceptance
criterion for the observability layer).
"""

import json

import pytest

from repro import cli
from repro.core.baselines import PBGTrainer
from repro.core.config import TrainingConfig
from repro.core.telemetry import Telemetry
from repro.core.trainer import HETKGTrainer
from repro.kg.graph import EditLog
from repro.obs.export import validate_chrome_trace, validate_chrome_trace_file
from repro.obs.tracer import NULL_SCOPE, Tracer, get_tracer, set_tracer
from repro.serving.frontend import ServingFrontend
from repro.serving.store import EmbeddingStore
from repro.serving.workload import WorkloadSpec, ZipfianWorkload


def config(**overrides):
    defaults = dict(
        model="transe", dim=8, epochs=2, batch_size=16, num_negatives=4,
        num_machines=2, cache_strategy="dps", cache_capacity=64,
        dps_window=4, sync_period=4, seed=1,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


@pytest.fixture(scope="module")
def traced_run(small_split):
    tracer = Tracer()
    trainer = HETKGTrainer(config())
    result = trainer.train(small_split.train, tracer=tracer)
    return tracer, trainer, result


class TestTrainerReconciliation:
    def test_span_totals_equal_clock_breakdown(self, traced_run):
        """Acceptance criterion: per-category span totals on each worker
        track equal that worker's SimClock category breakdown."""
        tracer, trainer, _ = traced_run
        for worker in trainer.workers:
            totals = tracer.sink.category_totals(f"worker{worker.machine}")
            for category in ("compute", "communication"):
                assert totals[category] == pytest.approx(
                    worker.clock.category(category), rel=1e-9
                ), (worker.machine, category)

    def test_span_totals_cover_full_clock(self, traced_run):
        tracer, trainer, _ = traced_run
        for worker in trainer.workers:
            totals = tracer.sink.category_totals(f"worker{worker.machine}")
            assert sum(totals.values()) == pytest.approx(worker.clock.elapsed)

    def test_all_phases_present(self, traced_run):
        tracer, _, _ = traced_run
        names = {s.name for s in tracer.sink.spans}
        assert {"sample", "fetch", "compute", "push", "sync", "install",
                "cache.install", "cache.fetch", "cache.sync",
                "ps.pull", "ps.push"} <= names

    def test_step_counters_match_iterations(self, traced_run):
        tracer, trainer, _ = traced_run
        steps = tracer.totals["worker.steps"]
        assert steps == sum(w.iterations for w in trainer.workers)
        assert tracer.totals["worker.syncs"] > 0

    def test_fetch_spans_carry_byte_attrs(self, traced_run):
        tracer, _, result = traced_run
        fetched = [s for s in tracer.sink.spans_named("fetch")]
        assert fetched
        assert all("bytes" in s.attrs for s in fetched)
        traced_bytes = sum(s.attrs["bytes"] for s in fetched)
        assert 0 < traced_bytes <= result.comm_totals.total_bytes

    def test_export_validates(self, traced_run):
        tracer, _, _ = traced_run
        summary = validate_chrome_trace(tracer.chrome_trace())
        assert summary["spans"] > 0
        assert summary["counters"] > 0
        assert summary["seconds[communication]"] > 0


class TestPBGReconciliation:
    """PBG's executor charges every clock advance inside a span on its
    machine's ``worker{m}`` track, as ``Worker.step`` does for HET-KG."""

    def test_span_totals_equal_clock_breakdown(self, small_split):
        tracer = Tracer()
        trainer = PBGTrainer(config(num_machines=3))
        result = trainer.train(small_split.train, tracer=tracer)
        for machine, clock in enumerate(trainer._clocks):
            totals = tracer.sink.category_totals(f"worker{machine}")
            for category in ("compute", "communication"):
                assert totals[category] == pytest.approx(
                    clock.category(category), rel=1e-9
                ), (machine, category)
            assert sum(totals.values()) == pytest.approx(clock.elapsed, rel=1e-9)
        spans = tracer.sink.spans
        assert {"swap_in", "swap_out", "relations", "lease_wait", "compute"} <= {
            s.name for s in spans
        }
        moved = [s for s in spans if s.name in ("swap_in", "swap_out", "relations")]
        assert sum(s.attrs["bytes"] for s in moved) == result.comm_totals.total_bytes

    def test_untraced_call_records_nothing(self, small_split):
        tracer = Tracer()
        trainer = PBGTrainer(config(epochs=1))
        trainer.train(small_split.train, tracer=tracer)
        count = len(tracer.sink.spans)
        trainer.train(small_split.train)
        assert len(tracer.sink.spans) == count > 0


class TestStreamReconciliation:
    """``OnlineTrainer.train`` runs its own step loop; it must bind the
    same scopes ``HETKGTrainer.train`` binds, and every clock charge of
    the ingest path must sit inside a span."""

    @pytest.fixture(scope="class")
    def traced_stream(self):
        from repro.core.trainer import make_trainer
        from repro.kg.datasets import generate_dataset
        from repro.stream import OnlineTrainer, make_stream

        graph = generate_dataset("fb15k", scale=0.012, seed=7)
        stream = make_stream(
            "rotation", graph, steps=200, seed=5, interval=8, inserts_per_update=16
        )
        trainer = make_trainer("hetkg-a", config(epochs=1, dps_window=8))
        tracer = Tracer()
        set_tracer(tracer)  # what the CLI's --trace installs
        folds = []
        fold = EditLog.fold

        def counted(log):
            folds.append(log)
            return fold(log)

        EditLog.fold = counted
        try:
            online = OnlineTrainer(trainer, stream, eval_every=32)
            result = online.train(graph)
            # Still under the run's scopes: fold what the run left pending.
            rows = sum(len(w.sampler.graph) for w in trainer.workers)
        finally:
            EditLog.fold = fold
            set_tracer(None)
        assert online._log not in folds  # the filter is off: nobody read it
        trainer.fold_stats = (len(folds), len(graph), rows)
        return tracer, trainer, result

    def test_span_totals_equal_clock_breakdown(self, traced_stream):
        tracer, trainer, result = traced_stream
        assert result.entities_added > 0  # the vocabulary grew mid-run
        ingest = 0.0
        for worker in trainer.workers:
            totals = tracer.sink.category_totals(f"worker{worker.machine}")
            for category, seconds in worker.clock.by_category.items():
                assert totals.get(category, 0.0) == pytest.approx(
                    seconds, rel=1e-9
                ), (worker.machine, category)
            assert sum(totals.values()) == pytest.approx(worker.clock.elapsed)
            ingest += totals.get("ingest", 0.0)
        assert ingest > 0

    def test_one_fold_span_per_fold(self, traced_stream):
        """Each sampler fold opens one zero-length ``ingest.fold`` span on
        its worker's track, naming the edits it folded and the rows it
        removed and appended: together every recorded edit, each one
        ``ingest.apply`` span, and the local graphs' growth."""
        tracer, trainer, _ = traced_stream
        calls, rows_before, rows_after = trainer.fold_stats
        spans = tracer.sink.spans_named("ingest.fold")
        assert len(spans) == calls > 0
        assert all(s.end == s.start for s in spans)
        assert {s.track for s in spans} <= {f"worker{w.machine}" for w in trainer.workers}
        assert sum(s.attrs["edits"] for s in spans) == len(
            tracer.sink.spans_named("ingest.apply")
        )
        removed = sum(s.attrs["removed"] for s in spans)
        appended = sum(s.attrs["appended"] for s in spans)
        assert removed > 0 and appended > 0
        assert rows_after == rows_before + appended - removed

    def test_ingest_and_step_spans_present(self, traced_stream):
        tracer, trainer, result = traced_stream
        names = {s.name for s in tracer.sink.spans}
        assert {"ingest.apply", "ingest.cold_start", "sample", "compute"} <= names
        steps = tracer.totals["worker.steps"]
        assert steps == sum(w.iterations for w in trainer.workers) > 0


class TestDisabledByDefault:
    def test_untraced_train_keeps_null_scopes(self, small_split):
        """A call without a tracer binds the null scope on every layer —
        also when the trainer's previous call was traced, whose tracer and
        telemetry then gain no span and no record (regression: both stayed
        on the workers and kept recording)."""
        for traced_first in (False, True):
            trainer = HETKGTrainer(
                config(epochs=1, backing="tiered", memory_budget="4K")
            )
            telemetry, tracer = Telemetry(), Tracer()
            if traced_first:
                trainer.train(small_split.train, telemetry=telemetry, tracer=tracer)
                assert len(telemetry) > 0 and len(tracer.sink.spans) > 0
            records, spans = len(telemetry), len(tracer.sink.spans)
            trainer.train(small_split.train)
            assert (len(telemetry), len(tracer.sink.spans)) == (records, spans)
            assert get_tracer().enabled is False
            server = trainer.server
            for worker in trainer.workers:
                assert worker.trace is NULL_SCOPE, traced_first
                assert worker.cache.trace is NULL_SCOPE, traced_first
                assert worker.server.trace is NULL_SCOPE, traced_first
                assert worker.server.ps_trace is NULL_SCOPE, traced_first
            for table in server.store.tier.tables.values():
                assert table._trace is NULL_SCOPE, traced_first

    def test_results_identical_with_and_without_tracing(self, small_split):
        plain = HETKGTrainer(config()).train(small_split.train)
        traced = HETKGTrainer(config()).train(small_split.train, tracer=Tracer())
        assert traced.history.losses() == plain.history.losses()
        assert traced.sim_time == plain.sim_time
        assert traced.comm_totals.remote_bytes == plain.comm_totals.remote_bytes


class TestServingReconciliation:
    def test_frontend_spans_match_clock(self, small_split):
        trainer = HETKGTrainer(config(epochs=1))
        trainer.train(small_split.train)
        store = EmbeddingStore.from_trainer(trainer)
        tracer = Tracer()
        frontend = ServingFrontend(store, tracer=tracer)
        workload = ZipfianWorkload(
            store.num_entities,
            store.num_relations,
            WorkloadSpec(num_queries=120, seed=3),
        )
        frontend.run(workload.generate())
        totals = tracer.sink.category_totals("serving@0")
        for category in ("compute", "communication", "idle"):
            assert totals.get(category, 0.0) == pytest.approx(
                frontend.clock.category(category)
            ), category
        assert tracer.totals["serve.queries"] == 120
        assert tracer.totals["serve.batches"] > 0
        validate_chrome_trace(tracer.chrome_trace())


class TestCliTrace:
    def test_train_trace_smoke(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        status = cli.main(
            [
                "train", "--dataset", "fb15k", "--scale", "0.012",
                "--epochs", "1", "--machines", "2", "--dim", "8",
                "--batch-size", "64", "--negatives", "4",
                "--eval-queries", "10", "--trace", str(out),
            ]
        )
        assert status == 0
        summary = validate_chrome_trace_file(str(out))
        assert summary["spans"] > 0
        assert summary["counters"] > 0
        assert "trace written" in capsys.readouterr().out
        # the CLI must uninstall its process-wide tracer afterwards
        assert get_tracer().enabled is False
        # file is plain JSON that chrome://tracing accepts
        trace = json.loads(out.read_text())
        assert isinstance(trace["traceEvents"], list)

    def test_train_pbg_trace_smoke(self, tmp_path, capsys):
        out = tmp_path / "pbg.json"
        status = cli.main(
            [
                "train", "--dataset", "fb15k", "--scale", "0.012",
                "--epochs", "1", "--machines", "2", "--dim", "8",
                "--batch-size", "64", "--negatives", "4",
                "--eval-queries", "10", "--system", "pbg", "--trace", str(out),
            ]
        )
        assert status == 0
        assert validate_chrome_trace_file(str(out))["spans"] > 0
        names = {e["name"] for e in json.loads(out.read_text())["traceEvents"]}
        assert {"swap_in", "relations", "swap_out", "compute"} <= names
        assert get_tracer().enabled is False

    def test_stream_trace_smoke(self, tmp_path, capsys):
        out = tmp_path / "stream.json"
        status = cli.main(
            [
                "stream", "--profile", "rotation", "--system", "hetkg-a",
                "--scale", "0.02", "--epochs", "1", "--trace", str(out),
            ]
        )
        assert status == 0
        assert validate_chrome_trace_file(str(out))["spans"] > 0
        names = {e["name"] for e in json.loads(out.read_text())["traceEvents"]}
        assert {"ingest.apply", "compute"} <= names
        assert get_tracer().enabled is False
