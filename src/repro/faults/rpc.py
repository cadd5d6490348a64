"""Each machine's one channel to the parameter server, retrying under faults.

:class:`PSChannel` is how a training worker — and its
:class:`~repro.cache.sync.HotEmbeddingCache` — reaches the
:class:`~repro.ps.server.ParameterServer`: every pull and push goes
through it, on every backend, whether or not faults are injected.
:meth:`~repro.core.worker.Worker.attach` builds one per machine at the
start of every training call.  Each call it sends into the server opens a
``ps.pull``/``ps.push`` span on the machine's ``ps@w{m}`` scope and adds
its wall seconds to :attr:`PSChannel.comm_wall_s` (what the mp backend
reports as measured communication).

Without a :class:`~repro.faults.injector.FaultInjector` a call is sent
once and returns the server's own record.  With one, each attempt
consults it:

* **drop** — the attempt's bytes are metered (the wire carried them, and
  they are additionally annotated as ``retransmit_bytes``), the caller's
  clock is charged the RPC ``timeout`` plus an exponential backoff with
  deterministic jitter, and the operation retries;
* **PS-shard outage** — same failure path, but deterministic for every
  attempt inside the outage window;
* **delay** — a successful attempt charges extra in-flight seconds.

All waiting time lands on the machine's :class:`~repro.utils.simclock.SimClock`
under ``"communication"`` (inside an ``rpc.retry_wait`` span on the
``rpc{m}`` scope), so fault overhead shows up directly in the Fig. 7-style
compute/communication breakdown; all failed-attempt traffic is merged into
the returned :class:`~repro.ps.network.CommRecord`, which the worker books
exactly once, as always (:meth:`~repro.core.worker.Worker.charge`).  Every
incident is booked once too, by
:meth:`~repro.faults.injector.FaultInjector.record`.

Retry-budget exhaustion degrades rather than deadlocks:

* ``pull`` (training needs the rows) **forces through** — modelling a
  failover read against a replica — and counts a ``forced_pull``;
* ``try_pull`` (used by the cache's periodic synchronization) **gives up**
  and returns ``rows=None`` so the cache can serve stale hot rows past
  the staleness bound ``P`` and record the overrun;
* ``push`` **drops the gradient** (the PS never sees it; the worker's own
  cache already absorbed it locally) and counts a ``lost_push``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.faults.injector import FaultInjector
from repro.obs.tracer import NULL_SCOPE
from repro.ps.network import CommRecord
from repro.ps.server import ParameterServer
from repro.utils.simclock import SimClock


class RetryingChannel:
    """The retry core both channels share.

    One attempt's fate (outage, then seeded drop), the metering of a failed
    attempt's wasted wire traffic, the timeout + jittered-backoff wait and
    the injected in-flight delay are identical for the training channel
    (:class:`PSChannel`) and the serving shard channel
    (:class:`repro.serving.channel.ShardChannel`); a subclass says
    only where shard owners and wasted-attempt bytes come from
    (:meth:`_shards`, :meth:`_wasted`).

    Parameters
    ----------
    machine:
        The machine this channel belongs to (its faults, its clock).
    clock:
        The machine's simulated clock; timeouts/backoffs/delays are
        charged here under ``"communication"``.
    injector:
        The cluster-wide deterministic fault source; ``None`` sends every
        call once, as is.
    trace:
        Observability scope for retries, waits and degradations.
    """

    def __init__(
        self,
        machine: int,
        clock: SimClock,
        injector: FaultInjector | None = None,
        trace=NULL_SCOPE,
    ) -> None:
        self.machine = machine
        self.clock = clock
        self.injector = injector
        self.trace = trace
        #: Current step/batch index (1-based), set by the owner before each
        #: step so fault windows line up with progress.
        self.iteration = 0

    # ------------------------------------------------------------------ hooks

    def _shards(self, kind: str, ids: np.ndarray) -> np.ndarray:
        """Distinct shard ids an operation on ``ids`` contacts."""
        raise NotImplementedError

    def _wasted(self, kind: str, ids: np.ndarray) -> CommRecord:
        """Wire traffic of one attempt whose payload was lost."""
        raise NotImplementedError

    def _record(self, kind: str, detail: str) -> None:
        """Book one retry/degradation incident on the injector, stamped
        with this machine's clock."""
        self.injector.record(
            kind, self.machine, self.iteration, self.clock.elapsed, detail
        )

    # ------------------------------------------------------------- retry core

    def _attempts(self, kind: str, ids: np.ndarray, send):
        """Run ``send()`` through the retry budget: ``(value, comm, ok)``.

        ``send`` performs the real operation and returns ``(value,
        CommRecord)``.  Without an injector it runs once and its record is
        returned as is.  Otherwise all failed-attempt traffic is merged
        into ``comm`` (as retransmits) and all waiting time is already on
        the clock; ``ok=False`` means the budget burned without ``send``
        running.
        """
        if self.injector is None:
            value, comm = send()
            return value, comm, True
        comm = CommRecord()
        for attempt in range(1, self.injector.plan.retry.max_attempts + 1):
            if self._attempt_fails(kind, ids):
                self._record_failure(comm, kind, ids, attempt)
                continue
            value, final = send()
            self._apply_delay()
            comm.merge(final)
            return value, comm, True
        return None, comm, False

    def _attempt_fails(self, kind: str, ids: np.ndarray) -> bool:
        """One attempt's fate: outage (deterministic) or drop (seeded)."""
        injector = self.injector
        if injector.plan.outages and injector.ps_unavailable(
            self._shards(kind, ids), self.iteration
        ):
            return True
        return injector.should_drop(self.machine, self.iteration)

    def _record_failure(
        self, comm: CommRecord, kind: str, ids: np.ndarray, attempt: int
    ) -> None:
        """Meter a failed attempt's wasted wire traffic and wait it out."""
        wasted = self._wasted(kind, ids)
        wasted.retransmit_bytes = wasted.total_bytes
        comm.merge(wasted)
        self.trace.count("rpc.retries")
        self._record("retry", f"{kind} attempt {attempt}")
        policy = self.injector.plan.retry
        backoff = policy.backoff(attempt)
        if backoff > 0.0 and policy.backoff_jitter > 0.0:
            backoff *= 1.0 + policy.backoff_jitter * self.injector.backoff_jitter(
                self.machine
            )
        self._wait(policy.timeout + backoff)

    def _wait(self, seconds: float) -> None:
        """Charge timeout/backoff time to the machine's clock."""
        if seconds <= 0.0:
            return
        self.injector.stats.retry_wait_seconds += seconds
        with self.trace.span("rpc.retry_wait", "communication") as span:
            self.clock.advance(seconds, "communication")
            span.set(seconds=seconds)

    def _apply_delay(self) -> None:
        """Inject scheduled in-flight latency into a successful attempt."""
        plan = self.injector.plan
        if not plan.delays:
            return
        extra = self.injector.delay_seconds(self.machine, self.iteration)
        if extra > 0.0:
            self.trace.count("rpc.delays")
            with self.trace.span("rpc.injected_delay", "communication") as span:
                self.clock.advance(extra, "communication")
                span.set(seconds=extra)


class PSChannel(RetryingChannel):
    """One machine's pull/push path to the parameter server.

    Parameters
    ----------
    server:
        The real (shared) parameter server.
    machine / clock / injector / trace:
        See :class:`RetryingChannel`; ``trace`` is the ``rpc{m}`` scope.
    ps_trace:
        The ``ps@w{m}`` scope the server-side ``ps.pull``/``ps.push`` spans
        open on (the PS is shared, so they run on the caller's clock).
    """

    def __init__(
        self,
        server: ParameterServer,
        machine: int,
        clock: SimClock,
        injector: FaultInjector | None = None,
        trace=NULL_SCOPE,
        ps_trace=NULL_SCOPE,
    ) -> None:
        super().__init__(machine, clock, injector, trace)
        self.server = server
        self.ps_trace = ps_trace
        #: Real seconds and calls spent inside the server.
        self.comm_wall_s = 0.0
        self.comm_calls = 0

    # ------------------------------------------------------------------- pulls

    def pull(self, kind: str, ids: np.ndarray):
        """Fetch rows, retrying through faults; always returns.

        After the retry budget is exhausted the read forces through
        (failover semantics) so training can continue; the event is
        counted as ``forced_pulls``.
        """
        rows, comm, ok = self._attempts(kind, ids, lambda: self._send(kind, ids))
        if not ok:
            self.trace.count("rpc.forced_pulls")
            self._record("forced_pull", f"{kind} x{len(np.atleast_1d(ids))}")
            # Failover read: pay one more full timeout, then the real pull.
            self._wait(self.injector.plan.retry.timeout)
            rows, final = self._send(kind, ids)
            comm.merge(final)
        return rows, comm

    def try_pull(self, kind: str, ids: np.ndarray):
        """Fetch rows, retrying through faults; may give up.

        Returns ``(rows, comm)`` with ``rows=None`` when the retry budget
        was exhausted — the degradable path used by the cache's periodic
        synchronization, which can safely serve stale rows instead.
        """
        rows, comm, ok = self._attempts(kind, ids, lambda: self._send(kind, ids))
        if not ok:
            self.trace.count("rpc.degraded_reads")
            self._record("stale_overrun", f"{kind} x{len(np.atleast_1d(ids))}")
        return rows, comm

    # ------------------------------------------------------------------ pushes

    def push(self, kind: str, ids: np.ndarray, grads: np.ndarray) -> CommRecord:
        """Send gradients, retrying through faults; may drop the update.

        A push whose retry budget exhausts is *lost*: the PS never applies
        the gradient (asynchronous SGD tolerates it; the worker's local
        cache copy already absorbed the update), counted as ``lost_pushes``.
        """
        _, comm, ok = self._attempts(
            kind, ids, lambda: self._send(kind, ids, grads)
        )
        if not ok:
            self.trace.count("rpc.lost_pushes")
            self._record("lost_push", f"{kind} x{len(np.atleast_1d(ids))}")
        return comm

    # ------------------------------------------------------------------- send

    def _send(self, kind: str, ids: np.ndarray, grads: np.ndarray | None = None):
        """One call into the server — a pull, or a push of ``grads`` —
        traced, timed and counted: ``(rows, comm)``, ``rows=None`` for a
        push."""
        name = "ps.pull" if grads is None else "ps.push"
        with self.ps_trace.span(name, "ps", kind=kind) as span:
            start = perf_counter()
            if grads is None:
                rows, comm = self.server.pull(kind, ids, self.machine)
            else:
                rows, comm = None, self.server.push(kind, ids, grads, self.machine)
            self.comm_wall_s += perf_counter() - start
            self.comm_calls += 1
            span.set(
                rows=len(ids), bytes=comm.total_bytes, remote_bytes=comm.remote_bytes
            )
        return rows, comm

    # ------------------------------------------------------------------ hooks

    def _shards(self, kind: str, ids: np.ndarray) -> np.ndarray:
        return self.server.touched_shards(kind, ids)

    def _wasted(self, kind: str, ids: np.ndarray) -> CommRecord:
        return self.server.meter(kind, ids, self.machine)
