"""repro.obs — span-based tracing and metrics over the simulated cluster.

The observability layer (see ``docs/observability.md``):

* :class:`Tracer` / :class:`TraceScope` — spans timed against
  :class:`~repro.utils.simclock.SimClock`, so durations reconcile
  exactly with the accounting the paper's tables are built from.
* :attr:`Tracer.totals` — the one counter table (cumulative values; the
  timestamped samples go to the sink).
* :mod:`repro.obs.export` — Chrome-trace JSON for ``chrome://tracing``
  and Perfetto, plus a schema validator used by CI.
* :func:`set_tracer` / :func:`get_tracer` — process-wide tracer the CLI
  ``--trace`` flag installs; everything defaults to the zero-cost
  :data:`NULL_TRACER` when tracing is off.
"""

from repro.obs.export import (
    to_chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
)
from repro.obs.reconcile import ReconcileReport, WorkerReconcile, reconcile
from repro.obs.sinks import CounterSample, InMemorySink, NullSink, SpanRecord, TraceSink
from repro.obs.tracer import (
    NULL_SCOPE,
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    TraceScope,
    get_tracer,
    set_tracer,
)

__all__ = [
    "CounterSample",
    "InMemorySink",
    "NULL_SCOPE",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullSink",
    "ReconcileReport",
    "Span",
    "SpanRecord",
    "TraceScope",
    "TraceSink",
    "Tracer",
    "WorkerReconcile",
    "get_tracer",
    "reconcile",
    "set_tracer",
    "to_chrome_trace",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "write_chrome_trace",
]
