"""Fault-tolerance study: graceful degradation under injected chaos.

Answers the production question the paper's perfect-fabric evaluation
cannot: when the 1 Gbps network flakes or a machine dies mid-epoch, how do
HET-KG-C/D and DGL-KE degrade in time, traffic, and final MRR?

Each system trains under increasing fault pressure (fault-free reference,
moderate message drops, heavy drops plus a worker crash recovered from a
periodic checkpoint), using one shared seed so differences come only from
the faults.  ``overhead %`` is the simulated-time penalty vs the same
system's fault-free run; retries/lost pushes/recoveries come straight from
the injector's counters (also visible in telemetry and obs traces).
"""

from __future__ import annotations

from repro.core.trainer import make_trainer
from repro.experiments.common import (
    ExperimentResult,
    SYSTEM_LABELS,
    base_config,
    dataset_bundle,
)
from repro.faults import CrashEvent, DropWindow, FaultPlan

#: Systems compared (PBG's block-swap loop has no PS RPC path to fault).
FAULT_SYSTEMS = ("dglke", "hetkg-c", "hetkg-d")

#: Auto-checkpoint cadence (global iterations) for the chaotic runs.
CHECKPOINT_EVERY = 4


def _default_levels(seed: int) -> list[tuple[str, FaultPlan | None]]:
    """The escalating chaos ladder shared by every system."""
    return [
        ("fault-free", None),
        ("drop 5%", FaultPlan(seed=seed, drops=(DropWindow(0.05),))),
        (
            "drop 15% + crash w1@6",
            FaultPlan(
                seed=seed,
                drops=(DropWindow(0.15),),
                crashes=(CrashEvent(machine=1, iteration=6),),
            ),
        ),
    ]


def run_fault_tolerance(
    scale: float = 0.05,
    epochs: int = 3,
    seed: int = 0,
    faults: str | None = None,
) -> ExperimentResult:
    """Time/traffic/MRR degradation of HET-KG-C/D vs DGL-KE under faults.

    ``faults`` (CLI ``--faults``) optionally replaces the built-in chaos
    ladder with a single user-specified :meth:`FaultPlan.parse` spec,
    still paired with each system's fault-free reference run.
    """
    bundle = dataset_bundle("fb15k", scale=scale, seed=seed)
    config = base_config(epochs=epochs, seed=seed)
    if faults:
        levels = [("fault-free", None), (faults, FaultPlan.parse(faults))]
    else:
        levels = _default_levels(seed)

    rows: list[list] = []
    series: dict[str, list[tuple[float, float]]] = {}
    for system in FAULT_SYSTEMS:
        reference_time: float | None = None
        curve: list[tuple[float, float]] = []
        for level_index, (label, plan) in enumerate(levels):
            trainer = make_trainer(system, config)
            result = trainer.train(
                bundle.split.train,
                eval_graph=bundle.split.test,
                known=bundle.graph,
                eval_max_queries=100,
                eval_candidates=300,
                faults=plan,
                checkpoint_every=CHECKPOINT_EVERY if plan is not None else None,
            )
            if reference_time is None:
                reference_time = result.sim_time
            overhead = (
                (result.sim_time / reference_time - 1.0) * 100.0
                if reference_time
                else 0.0
            )
            stats = result.fault_stats
            rows.append(
                [
                    SYSTEM_LABELS[system],
                    label,
                    result.sim_time,
                    result.comm_totals.remote_bytes / 1e6,
                    result.comm_totals.retransmit_bytes / 1e6,
                    result.final_metrics.get("mrr", 0.0),
                    int(stats.get("retries", 0)),
                    int(stats.get("lost_pushes", 0)),
                    int(stats.get("recoveries", 0)),
                    overhead,
                ]
            )
            curve.append((float(level_index), result.sim_time))
        series[SYSTEM_LABELS[system]] = curve

    return ExperimentResult(
        experiment_id="fault-tolerance",
        title="Degradation under injected faults (drops, crash-restart)",
        headers=[
            "system",
            "faults",
            "sim time (s)",
            "remote MB",
            "retransmit MB",
            "MRR",
            "retries",
            "lost pushes",
            "recoveries",
            "overhead %",
        ],
        rows=rows,
        notes=(
            "Same seed across all runs; overhead % is vs the same system's "
            "fault-free run.  Chaotic runs auto-checkpoint every "
            f"{CHECKPOINT_EVERY} iterations; a crashed machine rewinds its "
            "PS shard to the last snapshot and rebuilds its hot cache, all "
            "charged to its simulated clock.  Retransmitted bytes are "
            "included in remote MB (wire carried them) and split out here."
        ),
        series=series,
    )
