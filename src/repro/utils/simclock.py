"""Simulated per-machine clocks.

The paper's testbed is a 4-machine cluster on 1 Gbps Ethernet.  We replace
real hardware with an explicit cost model: every action a machine performs
(computing gradients, sending bytes over the network) advances its simulated
clock by the modelled duration.  Reported "training time" in experiments is
the maximum clock over all machines — the wall-clock time at which the
slowest machine finished, as in a real synchronously-finishing run.

Keeping time as an explicit accumulator makes runs deterministic and lets
tests assert exact communication/computation breakdowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class SimClock:
    """Accumulates simulated seconds, split by category.

    Categories are free-form strings; the experiments use ``"compute"`` and
    ``"communication"`` which directly produce the paper's Fig. 7 breakdown.
    """

    elapsed: float = 0.0
    by_category: dict[str, float] = field(default_factory=dict)

    def advance(self, seconds: float, category: str = "compute") -> None:
        """Advance the clock by ``seconds`` attributed to ``category``.

        ``seconds`` must be finite and non-negative: a single ``NaN`` or
        ``inf`` (e.g. from a degenerate cost model) would otherwise poison
        ``elapsed`` for the rest of the run and silently invalidate every
        downstream time report.
        """
        if not math.isfinite(seconds):
            raise ValueError(f"cannot advance clock by non-finite time: {seconds}")
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        self.elapsed += seconds
        self.by_category[category] = self.by_category.get(category, 0.0) + seconds

    def category(self, name: str) -> float:
        """Total seconds spent in ``name`` (0.0 if never used)."""
        return self.by_category.get(name, 0.0)

    def fraction(self, name: str) -> float:
        """Share of total elapsed time spent in ``name``."""
        if self.elapsed == 0.0:
            return 0.0
        return self.by_category.get(name, 0.0) / self.elapsed

    def merge(self, other: "SimClock") -> None:
        """Fold another clock's time into this one (used for aggregation)."""
        self.elapsed += other.elapsed
        for name, seconds in other.by_category.items():
            self.by_category[name] = self.by_category.get(name, 0.0) + seconds

    def copy(self) -> "SimClock":
        return SimClock(self.elapsed, dict(self.by_category))

    def difference(self, baseline: "SimClock") -> "SimClock":
        """Time accumulated since ``baseline`` (a prior :meth:`copy`)."""
        return SimClock(
            self.elapsed - baseline.elapsed,
            {
                name: seconds - baseline.category(name)
                for name, seconds in self.by_category.items()
            },
        )

    def reset(self) -> None:
        self.elapsed = 0.0
        self.by_category.clear()


def max_clock(clocks: list[SimClock]) -> SimClock:
    """Return a copy of the clock with the largest elapsed time.

    In a data-parallel epoch every machine works concurrently, so the epoch
    finishes when the slowest machine does.
    """
    if not clocks:
        raise ValueError("max_clock requires at least one clock")
    slowest = max(clocks, key=lambda c: c.elapsed)
    return slowest.copy()
