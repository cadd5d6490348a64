"""Wall-clock vs sim-clock reconciliation for mp training runs.

The simulator charges every pull/push against a :class:`~repro.utils.
simclock.SimClock` using the paper's analytical network model; the mp
backend additionally measures *real* seconds — per-worker wall span,
protocol stall time, and time spent inside parameter-server calls (timed
by each worker's :class:`~repro.faults.rpc.PSChannel`).  :func:`reconcile` lines the
two up:

* **predicted** communication fraction: the simulated clock's
  ``communication / elapsed`` per worker — what the model claims the
  workload's balance is;
* **measured** communication fraction: ``comm_wall_s / busy_s`` where
  ``busy_s = wall_s - stall_s - gate_s`` — what this host actually spent,
  with protocol waiting (turn-taking, staleness bound, start and epoch
  gates) excluded so the sync schedule's deliberate serialization does
  not masquerade as skew.  The stall fraction counts the step waits only:
  what the staleness bound (or the sync turn) costs, not the gates every
  schedule waits at.

A large gap is not an error — the simulated network is a model of a
cluster fabric, not of this host's memory bus — but the *relative* shape
(which worker is communication-heavy, how skewed the machines are) should
agree.  ``ReconcileReport.to_text()`` renders the comparison the CLI
prints after ``train --backend mp``.
"""

from __future__ import annotations

from dataclasses import dataclass


def _fraction(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


@dataclass(frozen=True)
class WorkerReconcile:
    """One worker's predicted-vs-measured communication balance."""

    machine: int
    #: Simulated seconds (this worker's SimClock).
    sim_elapsed: float
    sim_comm: float
    sim_compute: float
    #: Measured seconds on the host.
    wall_s: float
    stall_s: float
    comm_wall_s: float
    steps: int
    #: Seconds parked at the start and epoch gates.
    gate_s: float = 0.0

    @property
    def busy_s(self) -> float:
        """Wall time minus protocol waits (turn/staleness stalls, gates)."""
        return max(0.0, self.wall_s - self.stall_s - self.gate_s)

    @property
    def predicted_comm_fraction(self) -> float:
        return _fraction(self.sim_comm, self.sim_elapsed)

    @property
    def measured_comm_fraction(self) -> float:
        return _fraction(self.comm_wall_s, self.busy_s)

    @property
    def stall_fraction(self) -> float:
        return _fraction(self.stall_s, self.wall_s)

    @property
    def gate_fraction(self) -> float:
        return _fraction(self.gate_s, self.wall_s)


@dataclass(frozen=True)
class ReconcileReport:
    """Run-level reconciliation between simulated and measured clocks."""

    backend: str
    #: Simulated makespan (slowest worker's clock) vs the real elapsed
    #: seconds of the whole ``train()`` call.
    sim_time: float
    wall_time_s: float
    workers: tuple[WorkerReconcile, ...]

    @property
    def predicted_comm_fraction(self) -> float:
        """Aggregate simulated communication share across workers."""
        return _fraction(
            sum(w.sim_comm for w in self.workers),
            sum(w.sim_elapsed for w in self.workers),
        )

    @property
    def measured_comm_fraction(self) -> float:
        """Aggregate measured communication share (stalls excluded)."""
        return _fraction(
            sum(w.comm_wall_s for w in self.workers),
            sum(w.busy_s for w in self.workers),
        )

    @property
    def comm_fraction_gap(self) -> float:
        """measured - predicted; sign says which way the model is off."""
        return self.measured_comm_fraction - self.predicted_comm_fraction

    def to_text(self) -> str:
        """Human-readable report (what the CLI prints for mp runs)."""
        lines = [
            f"clock reconciliation ({self.backend})",
            f"  sim makespan {self.sim_time:.3f}s"
            f"  wall {self.wall_time_s:.3f}s",
            f"  comm fraction: predicted {self.predicted_comm_fraction:.1%}"
            f"  measured {self.measured_comm_fraction:.1%}"
            f"  gap {self.comm_fraction_gap:+.1%}",
        ]
        for w in sorted(self.workers, key=lambda w: w.machine):
            lines.append(
                f"  worker m{w.machine}: wall {w.wall_s:.3f}s"
                f" (stalled {w.stall_fraction:.0%}, gated {w.gate_fraction:.0%})"
                f"  comm {w.measured_comm_fraction:.1%} measured"
                f" vs {w.predicted_comm_fraction:.1%} predicted"
                f"  [{w.steps} steps]"
            )
        if not self.workers:
            lines.append(
                "  (no per-worker wall spans: simulator backend measures"
                " wall time only for the whole run)"
            )
        return "\n".join(lines)


def reconcile(result) -> ReconcileReport:
    """Build a :class:`ReconcileReport` from a :class:`TrainResult`.

    Works for both backends: simulator results carry no per-worker wall
    spans, so their report has an empty ``workers`` tuple and only the
    run-level ``sim_time`` / ``wall_time_s`` comparison.
    """
    workers = tuple(
        WorkerReconcile(
            machine=machine,
            sim_elapsed=span.get("sim_elapsed", 0.0),
            sim_comm=span.get("sim_comm", 0.0),
            sim_compute=span.get("sim_compute", 0.0),
            wall_s=span.get("wall_s", 0.0),
            stall_s=span.get("stall_s", 0.0),
            comm_wall_s=span.get("comm_wall_s", 0.0),
            steps=span.get("steps", 0),
            gate_s=span.get("gate_s", 0.0),
        )
        for machine, span in sorted(result.worker_wall.items())
    )
    return ReconcileReport(
        backend=result.backend,
        sim_time=result.sim_time,
        wall_time_s=result.wall_time_s,
        workers=workers,
    )
