"""Registry mapping paper experiment ids to runner functions, and the one
way to run them: :func:`run_experiment` (one id) and :func:`run_experiments`
(several, optionally across processes)."""

from __future__ import annotations

import inspect
from typing import Any, Callable, Sequence

from repro.experiments.ablations import (
    run_ablation_compression,
    run_model_zoo,
    run_ablation_dps_window,
    run_ablation_negatives,
    run_ablation_partition,
)
from repro.experiments.accuracy import run_table3, run_table4, run_table5
from repro.experiments.cache_shootout import run_cache_shootout
from repro.experiments.cache_study import (
    run_fig8a,
    run_fig8b,
    run_fig8c,
    run_fig9,
    run_policies_extended,
    run_table6,
    run_table7,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.efficiency import run_fig5, run_fig6, run_fig7
from repro.experiments.fault_tolerance import run_fault_tolerance
from repro.experiments.memory_tiering import run_memory_tiering
from repro.experiments.microbench import run_fig2, run_table1, run_table2
from repro.experiments.negative_sampling import run_negative_sampling
from repro.experiments.serving_scale import run_serving_scale
from repro.experiments.serving_study import run_serving_batcher, run_serving_cache
from repro.experiments.streaming_drift import run_streaming_drift
from repro.mp.pool import process_map

#: Every reproducible table/figure, keyed by the paper's numbering.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": run_table1,
    "fig2": run_fig2,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8a": run_fig8a,
    "fig8b": run_fig8b,
    "fig8c": run_fig8c,
    "fig9": run_fig9,
    "table6": run_table6,
    "table7": run_table7,
    "ablation-partition": run_ablation_partition,
    "ablation-negatives": run_ablation_negatives,
    "ablation-dps-window": run_ablation_dps_window,
    "ablation-compression": run_ablation_compression,
    "ablation-policies-extended": run_policies_extended,
    "ablation-model-zoo": run_model_zoo,
    "serving-cache": run_serving_cache,
    "serving-batcher": run_serving_batcher,
    "serving-scale": run_serving_scale,
    "fault-tolerance": run_fault_tolerance,
    "streaming-drift": run_streaming_drift,
    "memory-tiering": run_memory_tiering,
    "cache-shootout": run_cache_shootout,
    "negative-sampling": run_negative_sampling,
}


def get_experiment(name: str) -> Callable[..., ExperimentResult]:
    """Look up a runner by id (e.g. ``"table3"``)."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None


def list_experiments() -> list[str]:
    """All experiment ids, tables/figures first, ablations last."""
    return sorted(EXPERIMENTS)


def run_experiment(name: str, **settings: Any) -> ExperimentResult:
    """Run one experiment with the settings its runner's signature accepts.

    Settings the runner does not take, and ``None`` values, are dropped, so
    one settings dict (the CLI's flags, a report scale) serves every runner.
    """
    runner = get_experiment(name)
    accepted = inspect.signature(runner).parameters
    return runner(
        **{k: v for k, v in settings.items() if v is not None and k in accepted}
    )


def _run_task(task: tuple[str, dict[str, Any]]) -> ExperimentResult:
    """Worker body for :func:`run_experiments` (module-level: picklable)."""
    name, settings = task
    return run_experiment(name, **settings)


def run_experiments(
    names: Sequence[str], settings: dict[str, Any], jobs: int = 1
) -> list[ExperimentResult]:
    """:func:`run_experiment` each of ``names`` with the same ``settings`` on
    ``jobs`` processes; results come back in the order of ``names``, equal
    to the serial run's (every runner seeds its own generators)."""
    return process_map(_run_task, [(name, settings) for name in names], jobs=jobs)
