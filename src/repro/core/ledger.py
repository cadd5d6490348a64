"""The run ledger: what a ``train()`` call reports, and relative to what.

Every result this repo produces — the simulator's, PBG's, the online
trainer's, the mp backend's — is built by one :class:`RunLedger`:

1. :meth:`repro.core.worker.Worker.stats` snapshots everything one worker
   accumulates (a :class:`WorkerStats`);
2. the snapshot taken at ``train()`` entry is subtracted from the one taken
   at exit (:meth:`WorkerStats.minus`), so a call reports only what *it*
   did — repeated ``train()`` calls cannot inflate the books;
3. :meth:`RunLedger.summary` merges the per-worker deltas into the numbers
   every result type carries (:class:`RunSummary`).

``train()`` opens one ledger whichever executor runs its epochs (the mp
children hand their advanced workers back before it is read), so mp's
``sync`` schedule equals the simulator: both report through this class.
:func:`epoch_point` is the shared epoch boundary (evaluate if due →
:class:`~repro.core.convergence.HistoryPoint`), and
:func:`check_eval_budget` checks its budget when a call starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar

import numpy as np

from repro.core.convergence import HistoryPoint
from repro.ps.network import CommRecord
from repro.utils.validation import check_positive
from repro.utils.simclock import SimClock


@dataclass
class WorkerStats:
    """One worker's books at a point in time (plain data, picklable)."""

    machine: int = 0
    clock: SimClock = field(default_factory=SimClock)
    iterations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    scored_candidates: int = 0
    false_negative_leaks: int = 0
    staleness_overruns: int = 0
    max_staleness_overrun: int = 0
    #: Every byte this machine moved (booked where its clock paid for it).
    comm: CommRecord = field(default_factory=CommRecord)
    #: The part of ``comm`` the hard-negative refreshes paid for.
    neg_cache_comm: CommRecord = field(default_factory=CommRecord)
    #: ``CachedNegativeSampler.counters()``; empty without a neg cache.
    neg_cache: dict[str, int] = field(default_factory=dict)
    neg_cache_keys: int = 0
    neg_pending_keys: int = 0

    #: Point-in-time values: a delta keeps the later snapshot's reading
    #: instead of subtracting (every other field is a monotone total).
    GAUGES: ClassVar[tuple[str, ...]] = (
        "machine",
        "max_staleness_overrun",
        "neg_cache_keys",
        "neg_pending_keys",
    )

    def minus(self, base: "WorkerStats") -> "WorkerStats":
        """What accumulated since ``base`` (an earlier snapshot)."""
        delta = {}
        for f in fields(self):
            now, then = getattr(self, f.name), getattr(base, f.name)
            if f.name in self.GAUGES:
                delta[f.name] = now
            elif isinstance(now, dict):
                delta[f.name] = {k: v - then.get(k, 0) for k, v in now.items()}
            elif isinstance(now, (SimClock, CommRecord)):
                delta[f.name] = now.difference(then)
            else:
                delta[f.name] = now - then
        return WorkerStats(**delta)

    @property
    def cache_hit_ratio(self) -> float:
        accesses = self.cache_hits + self.cache_misses
        return self.cache_hits / accesses if accesses else 0.0


@dataclass
class RunSummary:
    """The numbers one ``train()`` call reports.

    Field names are result field names: :meth:`fields_for` hands each
    result type (``TrainResult``, ``OnlineTrainResult``) the ones it has.
    Times are the slowest worker's (the paper's "Time" column and its
    Fig. 7 breakdown); counts are summed over workers.
    """

    sim_time: float
    compute_time: float
    communication_time: float
    ingest_time: float
    comm_totals: CommRecord
    cache_hit_ratio: float
    false_negative_leaks: int
    scored_candidates: int
    neg_cache_stats: dict
    tier_time: float
    #: Summed over workers (goes into ``fault_stats["recovery_time"]``).
    recovery_time: float

    def fields_for(self, result_cls) -> dict:
        """This summary's fields that ``result_cls`` (a dataclass) declares."""
        wanted = {f.name for f in fields(result_cls)}
        return {k: v for k, v in vars(self).items() if k in wanted}


class RunLedger:
    """One ``train()`` call's books: open at entry, read at exit.

    ``stats`` returns the current per-worker snapshots; the optional
    ``tier_clock`` is the one cluster-wide clock a call is also reported
    relative to.
    """

    def __init__(
        self,
        stats: Callable[[], list[WorkerStats]],
        tier_clock: SimClock | None = None,
    ) -> None:
        self._stats = stats
        self._tier_clock = tier_clock if tier_clock is not None else SimClock()
        self.entry = stats()
        self._entry_tier = self._tier_clock.elapsed

    def deltas(self) -> list[WorkerStats]:
        return [now.minus(then) for now, then in zip(self._stats(), self.entry)]

    def sim_time(self) -> float:
        """Simulated seconds this call has taken so far (slowest worker)."""
        return max(d.clock.elapsed for d in self.deltas())

    def summary(self) -> RunSummary:
        """Merge this call's per-worker deltas into its reported numbers."""
        deltas = self.deltas()
        slowest = max(deltas, key=lambda d: d.clock.elapsed).clock  # first max
        comm_totals = CommRecord()
        for d in deltas:
            comm_totals.merge(d.comm)
        neg_cache_stats: dict = {}
        cached = [d for d in deltas if d.neg_cache]
        if cached:
            refresh = CommRecord()
            for d in cached:
                refresh.merge(d.neg_cache_comm)
                for name, value in d.neg_cache.items():
                    neg_cache_stats[name] = neg_cache_stats.get(name, 0) + value
            neg_cache_stats.update(
                cache_keys=sum(d.neg_cache_keys for d in cached),
                pending_keys=sum(d.neg_pending_keys for d in cached),
                refresh_bytes=refresh.total_bytes,
                refresh_remote_bytes=refresh.remote_bytes,
                refresh_messages=refresh.total_messages,
                neg_cache_time=slowest.category("neg_cache"),
            )
        return RunSummary(
            sim_time=slowest.elapsed,
            compute_time=slowest.category("compute"),
            communication_time=slowest.category("communication"),
            ingest_time=slowest.category("ingest"),
            comm_totals=comm_totals,
            cache_hit_ratio=float(np.mean([d.cache_hit_ratio for d in deltas])),
            false_negative_leaks=sum(d.false_negative_leaks for d in deltas),
            scored_candidates=sum(d.scored_candidates for d in deltas),
            neg_cache_stats=neg_cache_stats,
            tier_time=self._tier_clock.elapsed - self._entry_tier,
            recovery_time=sum(d.clock.category("recovery") for d in deltas),
        )


def check_eval_budget(
    eval_every: int | None, max_queries: int | None, num_candidates: int | None
) -> None:
    """Reject, before a call's first step, a budget :func:`epoch_point`
    cannot honour (``None`` is always fine)."""
    budget = {"eval_every": eval_every, "eval_max_queries": max_queries,
              "eval_candidates": num_candidates}
    for name, value in budget.items():
        if value is not None:
            check_positive(name, value)


def epoch_point(
    trainer,
    epoch: int,
    sim_time: float,
    losses: list[float],
    eval_graph,
    known,
    eval_every: int | None,
    max_queries: int | None,
    num_candidates: int | None,
) -> HistoryPoint:
    """The epoch boundary: evaluate if due, record loss/time/metrics.

    Evaluation is due every ``eval_every`` epochs and always after the last
    one (when ``eval_graph`` is given at all).
    """
    metrics: dict[str, float] = {}
    due = eval_every is not None and epoch % eval_every == 0
    if eval_graph is not None and (due or epoch == trainer.config.epochs):
        result = trainer.evaluate(
            eval_graph,
            known=known,
            max_queries=max_queries,
            num_candidates=num_candidates,
        )
        metrics = {
            "mrr": result.mrr,
            "mr": result.mr,
            **{f"hits@{k}": v for k, v in result.hits.items()},
        }
    return HistoryPoint(
        epoch=epoch,
        sim_time=sim_time,
        loss=float(np.mean(losses)) if losses else 0.0,
        metrics=metrics,
    )
