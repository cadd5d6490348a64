"""Generic hyperparameter sweeps over the training configuration.

The paper's Fig. 8 runs one-dimensional sweeps; this utility generalises
the pattern so users can sweep any ``TrainingConfig`` field (or a grid of
several) on any dataset and system, getting back one record per
configuration with the standard outcome metrics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.config import TrainingConfig
from repro.core.trainer import make_trainer
from repro.kg.graph import KnowledgeGraph
from repro.kg.splits import Split
from repro.mp.pool import process_map
from repro.utils.tables import format_table


@dataclass
class SweepResult:
    """Outcome of one sweep: one record (dict) per configuration."""

    parameters: list[str]
    records: list[dict[str, Any]] = field(default_factory=list)

    #: Metrics every record carries.
    METRICS = ("mrr", "hits@10", "sim_time", "communication_time", "cache_hit_ratio")

    def column(self, name: str) -> list[Any]:
        return [record[name] for record in self.records]

    def best(self, metric: str = "mrr", minimize: bool = False) -> dict[str, Any]:
        """The record with the best value of ``metric``."""
        if not self.records:
            raise ValueError("sweep produced no records")
        chooser = min if minimize else max
        return chooser(self.records, key=lambda rec: rec[metric])

    def to_text(self, precision: int = 3) -> str:
        headers = self.parameters + list(self.METRICS)
        rows = [[rec[h] for h in headers] for rec in self.records]
        return format_table(headers, rows, title="sweep results", precision=precision)


def _sweep_point(task: tuple) -> dict[str, Any]:
    """Train one grid point and summarise its outcome.

    Module-level so :func:`~repro.mp.pool.process_map` can
    ship it to worker processes; with ``jobs=1`` it runs inline, so the
    serial and parallel paths execute the exact same code.
    """
    (
        system,
        config,
        split,
        overrides,
        known,
        eval_max_queries,
        eval_candidates,
    ) = task
    trainer = make_trainer(system, config.with_overrides(**overrides))
    outcome = trainer.train(
        split.train,
        eval_graph=split.test,
        known=known,
        eval_max_queries=eval_max_queries,
        eval_candidates=eval_candidates,
    )
    record: dict[str, Any] = dict(overrides)
    record.update(
        {
            "mrr": outcome.final_metrics.get("mrr", 0.0),
            "hits@10": outcome.final_metrics.get("hits@10", 0.0),
            "sim_time": outcome.sim_time,
            "communication_time": outcome.communication_time,
            "cache_hit_ratio": outcome.cache_hit_ratio,
        }
    )
    return record


def run_sweep(
    system: str,
    config: TrainingConfig,
    split: Split,
    grid: dict[str, Sequence[Any]],
    known: KnowledgeGraph | None = None,
    eval_max_queries: int = 150,
    eval_candidates: int | None = 500,
    jobs: int = 1,
) -> SweepResult:
    """Train ``system`` once per point of the cartesian ``grid``.

    Parameters
    ----------
    grid:
        Mapping of ``TrainingConfig`` field name -> values to try.  The
        sweep runs the full cartesian product, in deterministic order.
    jobs:
        Worker processes.  Every grid point is an independent seeded run,
        so ``jobs > 1`` fans them out across cores; records come back in
        grid order either way and are identical to the serial sweep.
    """
    if not grid:
        raise ValueError("grid must name at least one parameter")
    for name in grid:
        if not hasattr(config, name):
            raise ValueError(f"unknown TrainingConfig field {name!r}")
        if not len(grid[name]):
            raise ValueError(f"no values given for parameter {name!r}")

    parameters = list(grid)
    tasks = [
        (
            system,
            config,
            split,
            dict(zip(parameters, combo)),
            known,
            eval_max_queries,
            eval_candidates,
        )
        for combo in itertools.product(*(grid[name] for name in parameters))
    ]
    return SweepResult(
        parameters=parameters,
        records=process_map(_sweep_point, tasks, jobs=jobs),
    )
