"""Deterministic fault injection and recovery for the simulated cluster.

The paper's testbed — four co-located PS machines on 1 Gbps Ethernet — is
exactly the environment where transient link faults, stragglers, and
machine crashes dominate multi-hour Freebase-scale runs.  This package
makes those failures *first-class, reproducible simulation inputs*:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a declarative, seeded
  schedule of drop/delay windows, straggler slowdowns, worker crashes and
  PS-shard outages (plus the :class:`RetryPolicy` governing recovery).
* :mod:`repro.faults.injector` — :class:`FaultInjector`, the deterministic
  runtime that answers "does this message drop?" from per-machine RNG
  streams, so two runs with the same seed and plan are bit-identical, and
  the one book of incidents: each is recorded once, as a
  :class:`FaultStats` count and a :class:`FaultEvent` in its log.
* :mod:`repro.faults.rpc` — :class:`PSChannel`, every worker's and
  cache's one path to the parameter server; with an injector it retries:
  timeouts, exponential backoff with jitter, retry budgets, and graceful
  degradation — every retry is re-charged to the worker's
  :class:`~repro.utils.simclock.SimClock` and metered in
  :class:`~repro.ps.network.CommRecord`.
* :mod:`repro.faults.recovery` — :class:`CheckpointManager` (periodic
  atomic snapshots) and :class:`ShardRecovery` (crash-restart: a dead
  machine loses its cache, its PS shard rewinds to the last checkpoint,
  and the full recovery time lands on its clock).

A :class:`FaultPlan` with no scheduled faults is an exact no-op: installing
it changes *nothing* — not a single RNG draw, clock tick, or metered byte
(asserted by the invariant tests).
"""

from repro.faults.injector import FaultEvent, FaultInjector, FaultStats, export_events_csv
from repro.faults.plan import (
    CrashEvent,
    DelayWindow,
    DropWindow,
    FaultPlan,
    OutageWindow,
    RetryPolicy,
    StragglerWindow,
)
from repro.faults.recovery import CheckpointManager, CheckpointSnapshot, ShardRecovery
from repro.faults.rpc import PSChannel

__all__ = [
    "CheckpointManager",
    "CheckpointSnapshot",
    "CrashEvent",
    "DelayWindow",
    "DropWindow",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "OutageWindow",
    "PSChannel",
    "RetryPolicy",
    "ShardRecovery",
    "StragglerWindow",
    "export_events_csv",
]
