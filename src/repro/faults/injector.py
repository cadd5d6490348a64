"""The deterministic chaos runtime resolving a :class:`FaultPlan`.

Determinism contract
--------------------
Each machine owns an independent RNG stream seeded from
``(plan.seed, machine)``, and a stream is consulted **only** when a fault
window with non-zero probability is active for that machine.  Because the
simulation schedules workers round-robin, the sequence of questions each
machine asks its stream is a pure function of (plan, seed, config), so two
runs with the same inputs inject bit-identical faults — and a plan with no
active windows never draws at all, preserving the no-op invariant.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import FaultPlan
from repro.utils.rng import worker_stream


@dataclass
class FaultStats:
    """Cumulative fault/recovery counters for one run (all machines)."""

    drops: int = 0
    delays: int = 0
    delay_seconds: float = 0.0
    outage_hits: int = 0
    retries: int = 0
    forced_pulls: int = 0
    lost_pushes: int = 0
    stale_overruns: int = 0
    crashes: int = 0
    recoveries: int = 0
    recovery_seconds: float = 0.0
    retry_wait_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "drops": self.drops,
            "delays": self.delays,
            "delay_seconds": self.delay_seconds,
            "outage_hits": self.outage_hits,
            "retries": self.retries,
            "forced_pulls": self.forced_pulls,
            "lost_pushes": self.lost_pushes,
            "stale_overruns": self.stale_overruns,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "recovery_seconds": self.recovery_seconds,
            "retry_wait_seconds": self.retry_wait_seconds,
        }

    def merge(self, other: "FaultStats") -> None:
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)


@dataclass(frozen=True)
class FaultEvent:
    """One fault-injection or recovery incident.

    ``kind`` is one of ``"retry"``, ``"forced_pull"``, ``"lost_push"``,
    ``"stale_overrun"``, ``"crash_restart"``; ``sim_time`` is the affected
    machine's clock when the event was recorded.
    """

    worker: int
    iteration: int
    kind: str
    sim_time: float
    detail: str = ""


#: The :class:`FaultStats` counter each event kind bumps.
EVENT_COUNTERS = {
    "retry": "retries",
    "forced_pull": "forced_pulls",
    "stale_overrun": "stale_overruns",
    "lost_push": "lost_pushes",
    "crash_restart": "recoveries",
}

_EVENT_CSV_FIELDS = ("worker", "iteration", "kind", "sim_time", "detail")


def export_events_csv(events: list[FaultEvent], path: str | os.PathLike[str]) -> None:
    """Write a fault-event log as CSV (one row per incident)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(_EVENT_CSV_FIELDS)
        for e in events:
            writer.writerow([getattr(e, name) for name in _EVENT_CSV_FIELDS])


class FaultInjector:
    """Answers the simulation's "does this fault fire?" questions.

    One injector serves the whole cluster; per-machine streams keep each
    machine's fault sequence independent of its peers' draw counts (the
    same isolation discipline :func:`repro.utils.rng.spawn_rngs` gives the
    samplers).  It also keeps the run's one incident log, :attr:`events`
    (see :meth:`record`).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self.events: list[FaultEvent] = []
        self._streams: dict[int, np.random.Generator] = {}
        self._pending_crashes: dict[int, set[int]] = {}
        for event in plan.crashes:
            self._pending_crashes.setdefault(event.machine, set()).add(event.iteration)

    # ----------------------------------------------------------------- streams

    def stream(self, machine: int) -> np.random.Generator:
        """The machine's private fault stream (created lazily)."""
        rng = self._streams.get(machine)
        if rng is None:
            rng = worker_stream(self.plan.seed, machine)
            self._streams[machine] = rng
        return rng

    # ------------------------------------------------------------------ faults

    def drop_probability(self, machine: int, iteration: int) -> float:
        """Effective drop probability (max over active windows)."""
        prob = 0.0
        for w in self.plan.drops:
            if w.probability > prob and w.applies(machine, iteration):
                prob = w.probability
        return prob

    def should_drop(self, machine: int, iteration: int) -> bool:
        """Decide whether one message attempt drops (draws iff p > 0)."""
        prob = self.drop_probability(machine, iteration)
        if prob <= 0.0:
            return False
        dropped = bool(self.stream(machine).random() < prob)
        if dropped:
            self.stats.drops += 1
        return dropped

    def delay_seconds(self, machine: int, iteration: int) -> float:
        """Extra in-flight latency injected into one successful attempt."""
        total = 0.0
        for w in self.plan.delays:
            if w.probability <= 0.0 or w.delay <= 0.0:
                continue
            if not w.applies(machine, iteration):
                continue
            if self.stream(machine).random() < w.probability:
                total += w.delay
        if total > 0.0:
            self.stats.delays += 1
            self.stats.delay_seconds += total
        return total

    def straggler_factor(self, machine: int, iteration: int) -> float:
        """Compute-slowdown multiplier (1.0 when no window is active)."""
        factor = 1.0
        for w in self.plan.stragglers:
            if w.applies(machine, iteration):
                factor *= w.slowdown
        return factor

    def ps_unavailable(self, shards: np.ndarray | list[int], iteration: int) -> bool:
        """True when any touched PS shard is inside an outage window."""
        if not self.plan.outages:
            return False
        for shard in shards:
            for w in self.plan.outages:
                if w.applies(int(shard), iteration):
                    self.stats.outage_hits += 1
                    return True
        return False

    def crash_due(self, machine: int, iteration: int) -> bool:
        """True exactly once per scheduled :class:`CrashEvent`."""
        pending = self._pending_crashes.get(machine)
        if pending and iteration in pending:
            pending.discard(iteration)
            self.stats.crashes += 1
            return True
        return False

    # ----------------------------------------------------------------- records

    def record(
        self, kind: str, machine: int, iteration: int, sim_time: float, detail: str = ""
    ) -> None:
        """Book one incident: bump its :class:`FaultStats` counter and
        append it to :attr:`events`."""
        counter = EVENT_COUNTERS[kind]
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        self.events.append(FaultEvent(machine, iteration, kind, sim_time, detail))

    # ------------------------------------------------------------------ jitter

    def backoff_jitter(self, machine: int) -> float:
        """A uniform [0, 1) draw for retry-backoff jitter (deterministic)."""
        return float(self.stream(machine).random())
