"""Unit tests for repro.obs: tracer, counters, sinks, Chrome-trace export."""

import json

import pytest

from repro.obs.export import (
    to_chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
)
from repro.obs.sinks import InMemorySink, NullSink, SpanRecord, TraceSink
from repro.obs.tracer import (
    NULL_SCOPE,
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    get_tracer,
    set_tracer,
)
from repro.utils.simclock import SimClock


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def tracer():
    return Tracer()


def make_nested_trace(tracer, clock):
    """outer[0, 1.75] wrapping inner[1.0, 1.5] on one track, plus a counter."""
    scope = tracer.scope("worker0", clock)
    with scope.span("outer", "compute", phase="demo") as outer:
        clock.advance(1.0, "compute")
        with scope.span("inner", "communication") as inner:
            clock.advance(0.5, "communication")
            inner.set(bytes=1234)
        clock.advance(0.25, "compute")
        outer.set(scores=10)
    scope.count("steps")
    return scope


class TestSpans:
    def test_span_records_clock_interval(self, tracer, clock):
        scope = tracer.scope("w", clock)
        clock.advance(2.0)
        with scope.span("fetch", "communication"):
            clock.advance(0.5, "communication")
        (span,) = tracer.sink.spans
        assert span.name == "fetch"
        assert span.track == "w"
        assert span.category == "communication"
        assert span.start == pytest.approx(2.0)
        assert span.end == pytest.approx(2.5)
        assert span.duration == pytest.approx(0.5)

    def test_nested_spans_contained(self, tracer, clock):
        make_nested_trace(tracer, clock)
        spans = {s.name: s for s in tracer.sink.spans}
        outer, inner = spans["outer"], spans["inner"]
        assert outer.start <= inner.start
        assert inner.end <= outer.end
        assert outer.duration == pytest.approx(1.75)
        assert inner.duration == pytest.approx(0.5)

    def test_attrs_set_mid_span(self, tracer, clock):
        make_nested_trace(tracer, clock)
        spans = {s.name: s for s in tracer.sink.spans}
        assert spans["inner"].attrs == {"bytes": 1234}
        assert spans["outer"].attrs == {"phase": "demo", "scores": 10}

    def test_category_totals_reconcile_with_clock(self, tracer, clock):
        make_nested_trace(tracer, clock)
        totals = tracer.sink.category_totals("worker0")
        # inner communication time is also inside the outer compute span;
        # outer's *duration* includes it, which is why instrumented code
        # gives each clock category its own span (asserted end-to-end in
        # test_obs_integration).
        assert totals["communication"] == pytest.approx(0.5)
        assert totals["compute"] == pytest.approx(1.75)

    def test_counter_samples_timestamped(self, tracer, clock):
        scope = make_nested_trace(tracer, clock)
        (sample,) = tracer.sink.counters
        assert sample.name == "steps"
        assert sample.ts == pytest.approx(1.75)
        assert sample.value == 1.0
        scope.count("steps")
        assert tracer.sink.counters[-1].value == 2.0


class TestCounterTotals:
    def test_counter_accumulates(self, tracer, clock):
        # One table across scopes: two tracks bump the same counter.
        tracer.scope("a", clock).count("x")
        tracer.scope("b", clock).count("x", 4)
        assert tracer.totals == {"x": 5.0}
        assert [s.value for s in tracer.sink.counters] == [1.0, 5.0]

    def test_counter_rejects_negative(self, tracer, clock):
        with pytest.raises(ValueError, match="cannot decrease"):
            tracer.scope("w", clock).count("x", -1)
        assert tracer.totals == {} and tracer.sink.counters == []


class TestDisabledPath:
    def test_null_scope_allocates_no_spans(self):
        # the whole point: tracing off means no span objects, ever
        a = NULL_SCOPE.span("fetch", "communication", bytes=1)
        b = NULL_SCOPE.span("push")
        assert a is b is NULL_SPAN
        with a as span:
            assert span.set(x=1) is span

    def test_null_tracer_scope_is_shared(self, clock):
        assert NULL_TRACER.scope("w", clock) is NULL_SCOPE
        assert not NULL_TRACER.enabled
        assert not NULL_SCOPE.enabled

    def test_global_tracer_default_is_null(self):
        assert get_tracer() is NULL_TRACER

    def test_global_tracer_install_and_clear(self, tracer):
        try:
            set_tracer(tracer)
            assert get_tracer() is tracer
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER


class TestSinks:
    def test_in_memory_sink_protocol(self):
        assert isinstance(InMemorySink(), TraceSink)
        assert isinstance(NullSink(), TraceSink)

    def test_null_sink_discards(self, clock):
        tracer = Tracer(sink=NullSink())
        scope = tracer.scope("w", clock)
        with scope.span("s"):
            clock.advance(1.0)
        scope.count("c")
        # counters still aggregate even when samples are dropped
        assert tracer.totals == {"c": 1.0}

    def test_clear(self, tracer, clock):
        make_nested_trace(tracer, clock)
        assert len(tracer.sink) > 0
        tracer.sink.clear()
        assert len(tracer.sink) == 0


class TestChromeExport:
    def test_golden_event_stream(self, tracer, clock):
        """Golden test: exact shape of a tiny nested trace."""
        make_nested_trace(tracer, clock)
        trace = tracer.chrome_trace()
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert meta == [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "worker0"},
            }
        ]
        timed = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        assert [(e["name"], e["ph"], e["ts"]) for e in timed] == [
            ("outer", "X", 0.0),
            ("inner", "X", 1.0e6),
            ("steps", "C", 1.75e6),
        ]
        outer = timed[0]
        assert outer["dur"] == pytest.approx(1.75e6)
        assert outer["cat"] == "compute"
        assert outer["args"] == {"phase": "demo", "scores": 10}

    def test_ts_monotonic_and_nesting_order(self, tracer, clock):
        # emission order is exit order (inner first); export must re-sort
        make_nested_trace(tracer, clock)
        assert tracer.sink.spans[0].name == "inner"
        timed = [e for e in tracer.chrome_trace()["traceEvents"] if e["ph"] != "M"]
        ts = [e["ts"] for e in timed]
        assert ts == sorted(ts)
        # equal-ts tie: the enclosing (longer) span must come first
        with tracer.scope("worker0", clock).span("outer2", "compute"):
            with tracer.scope("worker0", clock).span("inner2", "compute"):
                clock.advance(0.1)
            clock.advance(0.1)
        timed = [e for e in tracer.chrome_trace()["traceEvents"] if e["ph"] != "M"]
        names = [e["name"] for e in timed]
        assert names.index("outer2") < names.index("inner2")

    def test_validator_accepts_export(self, tracer, clock):
        make_nested_trace(tracer, clock)
        summary = validate_chrome_trace(tracer.chrome_trace())
        assert summary["spans"] == 2.0
        assert summary["counters"] == 1.0
        assert summary["seconds[communication]"] == pytest.approx(0.5)

    def test_file_roundtrip(self, tracer, clock, tmp_path):
        make_nested_trace(tracer, clock)
        path = tmp_path / "trace.json"
        tracer.export(str(path))
        summary = validate_chrome_trace_file(str(path))
        assert summary["spans"] == 2.0
        loaded = json.loads(path.read_text())
        assert loaded == tracer.chrome_trace()

    def test_write_chrome_trace_matches_to_chrome_trace(self, tracer, clock, tmp_path):
        make_nested_trace(tracer, clock)
        path = tmp_path / "t.json"
        write_chrome_trace(tracer.sink, str(path))
        assert json.loads(path.read_text()) == to_chrome_trace(tracer.sink)


class TestValidator:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace([])

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing keys"):
            validate_chrome_trace({"traceEvents": [{"name": "x", "ph": "X"}]})

    def test_rejects_negative_duration(self):
        event = {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 0, "dur": -1}
        with pytest.raises(ValueError, match="non-negative 'dur'"):
            validate_chrome_trace({"traceEvents": [event]})

    def test_rejects_non_monotonic_ts(self):
        events = [
            {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": 5.0, "dur": 1.0},
            {"name": "b", "ph": "X", "pid": 0, "tid": 0, "ts": 1.0, "dur": 1.0},
        ]
        with pytest.raises(ValueError, match="monotonicity"):
            validate_chrome_trace({"traceEvents": events})

    def test_rejects_unknown_phase(self):
        event = {"name": "x", "ph": "B", "pid": 0, "tid": 0, "ts": 0.0}
        with pytest.raises(ValueError, match="unsupported phase"):
            validate_chrome_trace({"traceEvents": [event]})

    def test_rejects_bad_counter_args(self):
        event = {"name": "c", "ph": "C", "pid": 0, "tid": 0, "ts": 0.0, "args": {}}
        with pytest.raises(ValueError, match="non-empty 'args'"):
            validate_chrome_trace({"traceEvents": [event]})

    def test_manual_span_record(self):
        sink = InMemorySink()
        sink.emit_span(SpanRecord(name="s", track="t", start=0.0, end=1.0))
        assert validate_chrome_trace(to_chrome_trace(sink))["spans"] == 1.0
