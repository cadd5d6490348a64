"""Per-iteration telemetry: what each worker did on every step.

Epoch-level histories (:mod:`repro.core.convergence`) are enough for the
paper's plots, but debugging cache behaviour needs finer grain: how many
bytes did iteration 17 move, how did the loss move, when did syncs fire.
Attach a :class:`Telemetry` to a trainer to capture one record per worker
step, then export CSV or aggregate.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class IterationRecord:
    """One worker training step."""

    worker: int
    iteration: int
    loss: float
    local_bytes: int
    remote_bytes: int
    sim_time: float  # the worker's clock after the step
    cache_hits: int
    cache_misses: int


@dataclass
class Telemetry:
    """Collects :class:`IterationRecord` objects across all workers.

    Run-level totals (false-negative leaks, neg-cache refresh counts, the
    store's memory report, the fault-incident log) are not repeated here:
    they are fields of the ``TrainResult`` the same ``train()`` call
    returns.
    """

    records: list[IterationRecord] = field(default_factory=list)

    def add(self, record: IterationRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------ views

    def for_worker(self, worker: int) -> list[IterationRecord]:
        return [r for r in self.records if r.worker == worker]

    def losses(self) -> list[float]:
        return [r.loss for r in self.records]

    def total_remote_bytes(self) -> int:
        return sum(r.remote_bytes for r in self.records)

    def hit_ratio(self) -> float:
        """Aggregate cache hit ratio over every recorded step."""
        hits = sum(r.cache_hits for r in self.records)
        misses = sum(r.cache_misses for r in self.records)
        total = hits + misses
        return hits / total if total else 0.0

    def summary(self) -> dict[str, float]:
        """Aggregate statistics over all recorded steps."""
        if not self.records:
            return {"steps": 0}
        n = len(self.records)
        hits = sum(r.cache_hits for r in self.records)
        misses = sum(r.cache_misses for r in self.records)
        return {
            "steps": n,
            "mean_loss": sum(r.loss for r in self.records) / n,
            "remote_bytes_per_step": self.total_remote_bytes() / n,
            "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        }

    # ------------------------------------------------------------------- I/O

    _CSV_FIELDS = (
        "worker",
        "iteration",
        "loss",
        "local_bytes",
        "remote_bytes",
        "sim_time",
        "cache_hits",
        "cache_misses",
    )

    def to_csv(self, path: str | os.PathLike[str]) -> None:
        """Write all records as CSV (one row per worker step)."""
        self.export_csv(path, append=False)

    def export_csv(
        self,
        path: str | os.PathLike[str],
        append: bool = False,
        clear: bool = False,
    ) -> None:
        """Write records to ``path``; optionally append and drop them.

        Long serving/training runs checkpoint telemetry periodically:
        ``export_csv(path, append=True, clear=True)`` flushes the records
        gathered since the last call and frees them, so memory stays
        bounded by the flush interval instead of the run length.  The
        header is written only when the file does not yet exist (or is
        being truncated).
        """
        write_header = not append or not os.path.exists(path) or (
            os.path.getsize(path) == 0
        )
        mode = "a" if append else "w"
        with open(path, mode, newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            if write_header:
                writer.writerow(self._CSV_FIELDS)
            for r in self.records:
                writer.writerow([getattr(r, name) for name in self._CSV_FIELDS])
        if clear:
            self.records.clear()

    @classmethod
    def from_csv(cls, path: str | os.PathLike[str]) -> "Telemetry":
        """Load records written by :meth:`to_csv`."""
        telemetry = cls()
        with open(path, newline="", encoding="utf-8") as f:
            for row in csv.DictReader(f):
                telemetry.add(
                    IterationRecord(
                        worker=int(row["worker"]),
                        iteration=int(row["iteration"]),
                        loss=float(row["loss"]),
                        local_bytes=int(row["local_bytes"]),
                        remote_bytes=int(row["remote_bytes"]),
                        sim_time=float(row["sim_time"]),
                        cache_hits=int(row["cache_hits"]),
                        cache_misses=int(row["cache_misses"]),
                    )
                )
        return telemetry
