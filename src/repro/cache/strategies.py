"""Hot-embedding table construction strategies: CPS and DPS (§IV-B).

* **Constant partial stale (CPS)** — prefetch a whole epoch of samples up
  front, filter the global top-k once, and keep that membership for the
  entire run.  Cheap, but assumes each mini-batch's access distribution
  matches the global one.
* **Dynamic partial stale (DPS)** — prefetch only the next ``D``
  iterations, filter the top-k *of that window*, and rebuild the table
  every ``D`` iterations.  Tracks short-term access patterns, so the hit
  ratio is higher, at the cost of recurring prefetch/filter work.

Both strategies also hand the worker the exact batches that were
prefetched, so training is equivalent to sampling live (Algorithm 1 returns
the sample list ``L_s`` for this reason).

The window loop — the sampler, the queue of prefetched batches, ``setup``
and ``next_batch`` — is written once, in :class:`HotEmbeddingStrategy`.
CPS, DPS and the streaming ADAPTIVE (:mod:`repro.stream.drift`) differ
only in ``_refill``: what each window prefetches and which hot set, if
any, it installs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.cache.core import CapacityLedger
from repro.cache.filtering import HotSet, filter_hot_ids
from repro.cache.prefetch import PrefetchResult, prefetch
from repro.sampling.minibatch import EpochSampler
from repro.sampling.negative import MiniBatch
from repro.utils.validation import check_positive


class HotEmbeddingStrategy(ABC):
    """Produces training batches plus hot-set (re)construction events.

    Usage: call :meth:`setup` once, then :meth:`next_batch` per training
    iteration.  ``next_batch`` returns ``(batch, hot_set)`` where
    ``hot_set`` is ``None`` unless the table membership must change before
    training on ``batch``.

    This class owns Algorithm 1's window loop: the sampler, the queue of
    prefetched batches, and when to refill it.  A strategy implements
    only :meth:`_refill` — what to prefetch and which hot set, if any, to
    install before the new window.

    ``consume_overhead_items()`` reports how many bookkeeping items
    (counted accesses) the strategy processed since the last call, so the
    worker can charge prefetch/filter time to its simulated clock — this is
    what makes DPS slightly slower than CPS on small graphs (Table IV).
    """

    def __init__(self, capacity: int, entity_ratio: float | None = 0.25) -> None:
        check_positive("capacity", capacity)
        self.capacity = capacity
        self.entity_ratio = entity_ratio
        self._pending_overhead = 0
        #: Centralized capacity accounting: every hot set this strategy
        #: emits is charged here, so an over-capacity membership raises
        #: :class:`repro.cache.core.CapacityError` at construction time
        #: instead of overflowing the worker's cache tables downstream.
        self._ledger = CapacityLedger(capacity)
        self._sampler: EpochSampler | None = None
        self._queue: list[MiniBatch] = []

    @abstractmethod
    def _refill(self, first: bool) -> HotSet | None:
        """Prefetch the next window into ``_queue``; return the hot set to
        install before it, or ``None`` to keep the membership.  ``first``
        is set for the window :meth:`setup` builds, which must return one."""

    def setup(self, sampler: EpochSampler) -> HotSet:
        """Prefetch and build the initial hot set."""
        self._sampler = sampler
        hot = self._refill(first=True)
        assert hot is not None
        return hot

    def next_batch(self) -> tuple[MiniBatch, HotSet | None]:
        """The next training batch, plus a new hot set when membership
        changes."""
        if self._sampler is None:
            raise RuntimeError("setup() must be called before next_batch()")
        hot = None if self._queue else self._refill(first=False)
        return self._queue.pop(0), hot

    def consume_overhead_items(self) -> int:
        """Bookkeeping items processed since last call (then reset)."""
        items = self._pending_overhead
        self._pending_overhead = 0
        return items

    # ---------------------------------------------------------------- helpers

    def _filter(self, result: PrefetchResult) -> HotSet:
        self._pending_overhead += (
            result.total_entity_accesses + result.total_relation_accesses
        )
        hot = filter_hot_ids(
            result.entity_counts,
            result.relation_counts,
            self.capacity,
            self.entity_ratio,
        )
        self._ledger.reinstall(hot.size)
        return hot


class ConstantPartialStale(HotEmbeddingStrategy):
    """CPS: one global top-k, fixed for the whole run.

    The first window is one full epoch (the paper's "prefetches the
    entire subgraph"), filtered once; every later epoch is sampled fresh
    with the same membership and no filtering overhead.
    """

    def _refill(self, first: bool) -> HotSet | None:
        epoch = self._sampler.batches_per_epoch
        if not first:
            self._queue = self._sampler.prefetch(epoch)
            return None
        result = prefetch(self._sampler, epoch)
        self._queue = list(result.batches)
        return self._filter(result)


class DynamicPartialStale(HotEmbeddingStrategy):
    """DPS: rebuild the top-k from each upcoming ``D``-iteration window."""

    def __init__(
        self,
        capacity: int,
        window: int = 32,
        entity_ratio: float | None = 0.25,
    ) -> None:
        super().__init__(capacity, entity_ratio)
        check_positive("window", window)
        self.window = window

    def _refill(self, first: bool) -> HotSet:
        result = prefetch(self._sampler, self.window)
        self._queue = list(result.batches)
        return self._filter(result)
