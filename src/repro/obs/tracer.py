"""Span tracer driven by simulated clocks.

The simulation already keeps exact per-machine time in
:class:`~repro.utils.simclock.SimClock`; the tracer turns that scalar
into *structure*: named spans that open and close at simulated
timestamps, grouped into per-component tracks, carrying byte/hit
attributes.  Because enter/exit read the same clock the instrumented
code advances, a span's duration is exactly the simulated time charged
inside it — span totals reconcile against ``SimClock.by_category`` to
float tolerance, which the accounting tests assert.

Usage::

    tracer = Tracer()
    scope = tracer.scope("worker0", worker.clock)
    with scope.span("fetch", "communication") as span:
        ...                       # advances worker.clock
        span.set(bytes=comm.total_bytes)
    tracer.export("trace.json")   # chrome://tracing / Perfetto

Disabled tracing is *zero-cost*: components default to the module-level
:data:`NULL_SCOPE`, whose ``span()`` returns one shared no-op context
manager — no span objects are allocated, nothing is stored, and no clock
is read.
"""

from __future__ import annotations

from repro.obs.sinks import CounterSample, InMemorySink, SpanRecord, TraceSink
from repro.utils.simclock import SimClock


class Span:
    """A live span: records clock timestamps on enter/exit.

    Created by :meth:`TraceScope.span`; use as a context manager.  Extra
    attributes discovered mid-span (bytes moved, rows hit) are attached
    with :meth:`set`.
    """

    __slots__ = ("_scope", "name", "category", "start", "end", "attrs")

    def __init__(self, scope: "TraceScope", name: str, category: str, attrs: dict):
        self._scope = scope
        self.name = name
        self.category = category
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0

    def set(self, **attrs: object) -> "Span":
        """Attach attributes; chainable, safe to call multiple times."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.start = self._scope.clock.elapsed
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = self._scope.clock.elapsed
        self._scope.tracer.sink.emit_span(
            SpanRecord(
                name=self.name,
                track=self._scope.track,
                start=self.start,
                end=self.end,
                category=self.category,
                attrs=self.attrs,
            )
        )
        return False


class TraceScope:
    """A tracer bound to one track (component) and one clock.

    Every simulated component that owns (or shares) a clock gets its own
    scope: ``worker0``, ``cache0``, ``ps@w0``, ``serving``...  Spans and
    counter samples emitted through the scope are timestamped with the
    scope's clock.
    """

    __slots__ = ("tracer", "track", "clock")

    def __init__(self, tracer: "Tracer", track: str, clock: SimClock):
        self.tracer = tracer
        self.track = track
        self.clock = clock

    @property
    def enabled(self) -> bool:
        return True

    def span(self, name: str, category: str = "misc", **attrs: object) -> Span:
        """A context manager timing ``name`` against the scope's clock."""
        return Span(self, name, category, dict(attrs))

    def count(self, name: str, value: float = 1.0) -> None:
        """Bump counter ``name`` and emit a timestamped sample of its
        cumulative value."""
        if value < 0:
            raise ValueError(f"counter {name!r} cannot decrease (got {value})")
        totals = self.tracer.totals
        total = totals[name] = totals.get(name, 0.0) + value
        self.tracer.sink.emit_counter(
            CounterSample(name=name, track=self.track, ts=self.clock.elapsed, value=total)
        )


class Tracer:
    """Factory for :class:`TraceScope` objects sharing one sink and one
    counter table.

    :attr:`totals` maps each counter name to its cumulative value over
    every scope ("how much of X happened": steps, rebuilds, bytes, batch
    flushes); the sink receives the timestamped samples, which become
    ``ph: "C"`` counter tracks in the Chrome-trace export.
    """

    enabled = True

    def __init__(self, sink: TraceSink | None = None) -> None:
        self.sink: TraceSink = sink if sink is not None else InMemorySink()
        self.totals: dict[str, float] = {}

    def scope(self, track: str, clock: SimClock) -> TraceScope:
        return TraceScope(self, track, clock)

    # ------------------------------------------------------------------ export

    def chrome_trace(self) -> dict:
        """The collected records as a Chrome-trace (Trace Event) dict.

        Requires the default :class:`InMemorySink` (or any sink exposing
        ``spans`` and ``counters`` lists).
        """
        from repro.obs.export import to_chrome_trace

        return to_chrome_trace(self.sink)

    def export(self, path: str) -> None:
        """Write the Chrome-trace JSON to ``path``."""
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(self.sink, path)


# --------------------------------------------------------------- disabled path


class _NullSpan:
    """Shared no-op span: never reads a clock, never stores anything."""

    __slots__ = ()

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _NullScope:
    """Shared no-op scope handed to components when tracing is off."""

    __slots__ = ()

    enabled = False

    def span(self, name: str, category: str = "misc", **attrs: object) -> _NullSpan:
        return NULL_SPAN

    def count(self, name: str, value: float = 1.0) -> None:
        pass


NULL_SCOPE = _NullScope()


class _NullTracer:
    """Disabled tracer: all scopes are the shared :data:`NULL_SCOPE`."""

    enabled = False

    def scope(self, track: str, clock: SimClock) -> _NullScope:
        return NULL_SCOPE


NULL_TRACER = _NullTracer()

# ------------------------------------------------------------- global tracer

_GLOBAL_TRACER: Tracer | None = None


def set_tracer(tracer: Tracer | None) -> None:
    """Install (or clear, with ``None``) the process-wide tracer.

    Components built afterwards — trainers, serving frontends — pick it
    up automatically when no explicit tracer is passed.  This is what
    the CLI ``--trace`` flag uses so experiments need no plumbing.
    """
    global _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer


def get_tracer() -> Tracer | _NullTracer:
    """The process-wide tracer, or the zero-cost null tracer."""
    return _GLOBAL_TRACER if _GLOBAL_TRACER is not None else NULL_TRACER
