"""Wall-clock spans recorded from the benchmark's side of each layer boundary.

The traced run wraps the layers' public callables (``Worker.step``,
``server.pull``, ``model.score`` ...) and keeps one span per call in memory:
``(name, start, end, parent, worker, step)``.  ``(worker, step)`` is the
identifier every span of one training step shares; ``parent`` is the index
of the enclosing span.  Nothing is written until the run ends.

A layer's *self time* is its span's duration minus the part its child spans
cover, so the self times of everything under a root span sum to that root's
duration exactly — which is what lets the per-layer split be checked
against ``worker.step_ms``.

Wrapping is done on the class that defines the method (found from the
instance the workload built), not on the instance: hot-set installs create
fresh local optimizers mid-run, and the mp workers are forked processes
that must inherit the wrappers.  The recorder lives only in the traced
child process, so nothing outside it is affected.
"""

from __future__ import annotations

import json
import types
from time import perf_counter

import numpy as np

SPAN_FIELDS = ("name", "start", "end", "parent", "worker", "step")


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        #: One ``SPAN_FIELDS`` tuple per call, in entry order.
        self.spans: list[tuple] = []
        #: Work done at a boundary, summed per span name (e.g. rows pulled).
        self.work: dict[str, int] = {}
        #: Spans are recorded only while this is set (the timed call).
        self.active = False
        self._stack: list[int] = []
        self._muted = 0
        self._ident: tuple[int, int] = (-1, -1)
        self._wrapped: set[tuple[int, str]] = set()

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        *,
        root: bool = False,
        leaf: bool = False,
        ident=None,
        work=None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``owner`` is a module (the attribute is replaced), or a class or
        instance (the method is replaced on the class that defines it,
        once).  Only ``root`` spans open a trace; calls made outside any
        root span (set-up work) are not recorded.  A ``leaf`` span hides
        the spans below it, so their time stays attributed to it.
        ``ident(*args)`` gives the ``(worker, step)`` the span and its
        children carry; ``work(*args)`` is added to ``self.work[name]``.
        """
        if not isinstance(owner, types.ModuleType):
            cls = owner if isinstance(owner, type) else type(owner)
            owner = next(c for c in cls.__mro__ if attr in vars(c))
        key = (id(owner), attr)
        if key in self._wrapped:
            return
        self._wrapped.add(key)
        fn = vars(owner)[attr]
        spans, stack = self.spans, self._stack
        rec = self

        def traced(*args, **kwargs):
            if not rec.active or rec._muted or not (stack or root):
                return fn(*args, **kwargs)
            if ident is not None:
                rec._ident = ident(*args)
            if work is not None:
                rec.work[name] = rec.work.get(name, 0) + work(*args)
            index = len(spans)
            parent = stack[-1] if stack else -1
            worker, step = rec._ident
            spans.append(None)
            stack.append(index)
            rec._muted += leaf
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec._muted -= leaf
                stack.pop()
                spans[index] = (name, start, end, parent, worker, step)

        setattr(owner, attr, traced)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def aggregate(self) -> dict:
        """``{name: {count, total_s, self_s[, work]}}`` over every span."""
        out: dict[str, dict] = {}
        spans = self.spans
        if spans:
            n = len(spans)
            names = sorted({s[0] for s in spans})
            code_of = {name: i for i, name in enumerate(names)}
            code = np.fromiter((code_of[s[0]] for s in spans), dtype=np.int64, count=n)
            start = np.fromiter((s[1] for s in spans), dtype=np.float64, count=n)
            end = np.fromiter((s[2] for s in spans), dtype=np.float64, count=n)
            parent = np.fromiter((s[3] for s in spans), dtype=np.int64, count=n)
            total = end - start
            nested = parent >= 0
            covered = np.bincount(parent[nested], weights=total[nested], minlength=n)
            counts = np.bincount(code, minlength=len(names))
            totals = np.bincount(code, weights=total, minlength=len(names))
            selfs = np.bincount(code, weights=total - covered, minlength=len(names))
            for i, name in enumerate(names):
                out[name] = {
                    "count": int(counts[i]),
                    "total_s": float(totals[i]),
                    "self_s": float(selfs[i]),
                }
        for name, amount in self.work.items():
            out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            out[name]["work"] = int(amount)
        return out

    def dump(self, path, aggregate: dict, raw: bool = False, **extra) -> None:
        """Write ``aggregate`` (and, with ``raw``, every span) as JSON."""
        doc = {**extra, "aggregate": aggregate}
        if raw:
            doc["span_fields"] = SPAN_FIELDS
            doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def merge_aggregates(parts: list[dict]) -> dict:
    """Sum per-name aggregates (one per mp worker process)."""
    merged: dict[str, dict] = {}
    for part in parts:
        for name, row in part.items():
            into = merged.setdefault(name, {})
            for key, value in row.items():
                into[key] = into.get(key, 0) + value
    return merged
