"""Shard-pull channel between a frontend and the embedding store.

The serving analogue of :class:`repro.faults.rpc.PSChannel`: every
cache-miss pull of a :class:`~repro.serving.frontend.ServingFrontend`
goes through its one :class:`ShardChannel`.  Without a fault injector a
pull is metered once and always succeeds.  With one, every pull consults
the deterministic :class:`~repro.faults.injector.FaultInjector` per
attempt —

* **PS-shard outage** — an attempt touching a shard inside an
  :class:`~repro.faults.plan.OutageWindow` fails deterministically;
* **drop** — an attempt drops with the window's probability, drawn from
  the injector's per-machine seeded stream;
* **delay** — a successful attempt charges extra in-flight seconds.

Every failed attempt meters its wasted wire traffic as
``CommRecord.retransmit_bytes`` and charges the RPC timeout plus a
jittered exponential backoff to the **serving** clock under
``"communication"`` (inside ``rpc.retry_wait`` spans), so fault overhead
lands directly in the frontend's latency distribution: queries queued
behind a retrying batch see their projected completion rise, which the
:class:`~repro.serving.admission.LoadShedder` turns into shed traffic —
overload degradation instead of an exception.

When the whole retry budget burns without reaching the shard, the pull
**gives up** (returns ``ok=False``): the frontend completes the batch's
queries with the first-class ``timeout`` outcome.  Serving has no
failover replica to force through to — a timed-out answer is simply not
served, which is exactly what a deadline-bound client observes.

Batches, not training steps, index the fault windows here: batch ``k``
(1-based) is "iteration ``k``" for window/crash matching purposes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.faults.injector import FaultInjector
from repro.faults.rpc import RetryingChannel
from repro.obs.tracer import NULL_SCOPE
from repro.ps.network import CommRecord
from repro.utils.simclock import SimClock


class ShardChannel(RetryingChannel):
    """Per-frontend pull path over the sharded embedding store.

    Parameters
    ----------
    store:
        The :class:`~repro.serving.store.EmbeddingStore` (or a
        :class:`~repro.serving.deploy.VersionedStore`) owning the shard map.
    machine / clock / injector / trace:
        See :class:`~repro.faults.rpc.RetryingChannel` (the frontend's
        co-located shard, its serving clock and its scope).
    meter:
        The frontend's miss-pull metering, ``(kind, miss_ids) ->
        CommRecord`` — a failed attempt wastes exactly what a successful
        one would have moved.
    """

    def __init__(
        self,
        store,
        machine: int,
        clock: SimClock,
        meter: Callable[[str, np.ndarray], CommRecord],
        injector: FaultInjector | None = None,
        trace=NULL_SCOPE,
    ) -> None:
        super().__init__(machine, clock, injector, trace)
        self.store = store
        self.meter = meter

    def _wasted(self, kind: str, ids: np.ndarray) -> CommRecord:
        return self.meter(kind, ids)

    def _shards(self, kind: str, ids: np.ndarray) -> np.ndarray:
        return np.unique(self.store.store.owners(kind, ids))

    def pull(self, kind: str, miss_ids: np.ndarray) -> tuple[CommRecord, bool]:
        """Attempt one miss pull (through faults, when injected):
        ``(comm, ok)``.

        ``ok=False`` means the retry budget is exhausted — the caller
        times the batch out.  All failed-attempt traffic is already
        merged into ``comm`` (as retransmits) and all waiting time is
        already on the clock.
        """
        _, comm, ok = self._attempts(
            kind, miss_ids, lambda: (None, self.meter(kind, miss_ids))
        )
        return comm, ok
