"""The mp executor: the epochs of a ``train(backend="mp")`` call, one OS
process per worker over shared memory.

:meth:`repro.core.trainer.HETKGTrainer.train` is the one training call of
both backends.  :func:`check_mp_call` rejects, before any set-up, what
this executor cannot run; :func:`mp_epochs` runs the epochs:

1. the server's state arrays move into :class:`~repro.mp.shm.SharedArena`
   segments and the server is rebound onto them, so the parent evaluates
   the memory the children train;
2. each worker is shipped by :meth:`~repro.mp.shm.SharedArena.dumps` to a
   child running :func:`repro.mp.worker.worker_main`; each epoch's losses
   are yielded in the simulator's order (``np.mean`` is order-sensitive:
   this keeps ``sync`` bit-identical) while the children are parked;
3. once every child has handed its worker back, the returned workers
   replace the ones the call found in ``trainer.workers``;
4. whatever happens, the server is rebound onto private copies *before*
   the arena unlinks its segments, and no ``/dev/shm`` entry survives.

A child that exits without reporting trips :class:`MPWorkerCrashed`; the
abort event unblocks every sibling, which exits quietly.
"""

from __future__ import annotations

import queue as queue_mod
import time

import numpy as np

from repro.core.telemetry import Telemetry
from repro.mp.shm import SharedArena, loads
from repro.mp.worker import MPControls, WorkerSpec, worker_main
from repro.obs.tracer import get_tracer

#: Seconds between liveness checks while waiting on children.
_POLL_S = 0.1

#: Default hard ceiling on a whole mp run — generous (training epochs on
#: the experiment datasets take seconds), but it converts a deadlocked
#: child into a diagnosable MPWorkerCrashed instead of a hang.
DEFAULT_TIMEOUT_S = 600.0

SCHEDULES = ("sync", "async")

#: Why the mp executor turns an argument down, stated once: the Python
#: call raises these and ``repro.cli.RULES`` prints them.
TRACE_REASON = "the span tracer is process-local"
FAULTS_REASON = "faults are injected into the PS channels of the simulator's in-process workers"
CHECKPOINT_REASON = "crash recovery snapshots the simulator's in-process PS shards"
TIERED_REASON = (
    "tiered tables live in one process's parameter-server store (file "
    "handles are process-local)"
)
PBG_REASON = (
    "PBG runs its own block-swap loop in one address space, with no "
    "parameter-server workers or cache to drive"
)
MP_ONLY_REASON = "it configures the mp backend's processes"


class MPUnsupportedError(ValueError):
    """A configuration the mp backend does not support (use sim)."""


class MPWorkerCrashed(RuntimeError):
    """A worker process died (or stalled) before delivering its results."""


def check_mp_call(
    trainer, tracer, faults, checkpoint_every, checkpoint_path, *,
    schedule, staleness_bound, start_method, timeout_s, crash_at_step,
) -> dict:
    """Reject what the mp executor cannot run; returns :func:`mp_epochs`'
    options.  ``crash_at_step`` is a test hook: ``(rank, step)`` makes
    that worker die abruptly (``os._exit``) right before the step."""
    import multiprocessing

    from repro.core.baselines import PBGTrainer

    if isinstance(trainer, PBGTrainer):
        raise MPUnsupportedError(f"PBG trains with backend='sim' only: {PBG_REASON}")
    tracer = tracer if tracer is not None else get_tracer()
    for what, given, reason in (
        ("a tracer", tracer.enabled, TRACE_REASON),
        ("faults", faults is not None, FAULTS_REASON),
        ("checkpoints", (checkpoint_every, checkpoint_path) != (None, None), CHECKPOINT_REASON),
        ("tiered backing", trainer.config.backing != "resident", TIERED_REASON),
    ):
        if given:
            raise MPUnsupportedError(f"the mp backend does not take {what}: {reason}")
    schedule = schedule or "async"
    if schedule not in SCHEDULES:
        raise MPUnsupportedError(
            f"unknown mp schedule {schedule!r}; expected one of {SCHEDULES}"
        )
    bound = staleness_bound if staleness_bound is not None else trainer.config.sync_period
    if bound < 1:
        raise MPUnsupportedError(f"staleness bound must be >= 1, got {bound}")
    if timeout_s is not None and not timeout_s > 0:
        raise MPUnsupportedError(f"timeout_s must be positive, got {timeout_s!r}")
    ctx = multiprocessing.get_context(start_method or "spawn")
    timeout_s = timeout_s if timeout_s is not None else DEFAULT_TIMEOUT_S
    return dict(schedule=schedule, bound=bound, ctx=ctx, timeout_s=timeout_s,
                crash_at_step=crash_at_step)


def mp_epochs(
    trainer, ledger, telemetry, worker_wall: dict, *,
    schedule: str, bound: int, ctx, timeout_s: float, crash_at_step,
):
    """Yield each epoch's ``(losses, sim seconds)`` from real processes;
    then put their workers back and fill ``worker_wall`` with each one's
    wall-clock spans.  Closing the generator early tears the run down."""
    if not trainer.workers:
        raise MPUnsupportedError("setup produced no workers to parallelize")
    server = trainer.server
    num_workers = len(trainer.workers)
    iterations = trainer.steps_per_epoch
    deadline = time.monotonic() + timeout_s
    arena = SharedArena()
    procs: list = []
    controls: MPControls | None = None
    try:
        server.rebind({name: arena.share(a) for name, a in server.state_arrays().items()})
        controls = MPControls(ctx, num_workers)
        for rank, worker in enumerate(trainer.workers):
            if telemetry is not None:
                # Each child records into its own; merged in step order below.
                worker.attach(server, telemetry=Telemetry())
            spec = WorkerSpec(
                rank=rank, num_workers=num_workers, world=arena.dumps(worker),
                epochs=trainer.config.epochs, iterations=iterations, schedule=schedule,
                staleness_bound=bound, crash_at_step=crash_at_step,
            )
            procs.append(ctx.Process(target=worker_main, args=(spec, controls), daemon=True))
            procs[-1].start()

        rank_of = {w.machine: r for r, w in enumerate(trainer.workers)}
        early: list = []
        _collect(controls, procs, "ready", deadline, early)
        _set_gate(controls, 0)  # every hot table installed: start stepping
        for epoch in range(1, trainer.config.epochs + 1):
            reports = _collect(controls, procs, "epoch", deadline, early)
            losses = [
                reports[rank][1][i] for i in range(iterations) for rank in range(num_workers)
            ]
            yield losses, max(report[2] for report in reports.values())
            _set_gate(controls, epoch)  # release the next epoch's writes

        done = _collect(controls, procs, "done", deadline, early)
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        # Every rank has reported: only now do the advanced workers replace
        # the ones the call found (the channel comes back as an id).
        returned = [loads(done[r][0], lambda _: None) for r in range(num_workers)]
        if telemetry is not None:
            # The simulator's global step order: cumulative per-worker
            # iteration, then worker position.
            telemetry.records.extend(
                sorted(
                    (r for w in returned for r in w.telemetry.records),
                    key=lambda r: (r.iteration, rank_of[r.worker]),
                )
            )
        for worker in returned:
            worker.attach(server)
        trainer.workers[:] = returned
        for rank, d in enumerate(ledger.deltas()):
            worker_wall[d.machine] = {
                **done[rank][1],
                "steps": d.iterations,
                "staleness_overruns": d.staleness_overruns,
                "max_staleness_overrun": d.max_staleness_overrun,
                # Simulated counterparts, so repro.obs.reconcile can line the
                # model's prediction up against this worker's measurements.
                "sim_elapsed": d.clock.elapsed,
                "sim_comm": d.clock.category("communication"),
                "sim_compute": d.clock.category("compute"),
            }
    except BaseException:
        # Unblock and stop every child.
        if controls is not None:
            controls.abort.set()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=10.0)
        raise
    finally:
        # The trainer outlives the arena (evaluate, checkpoint, the next
        # call), so it must leave holding private memory.
        server.rebind({n: np.array(a) for n, a in server.state_arrays().items()})
        arena.close()


# ------------------------------------------------------------------ plumbing


def _set_gate(controls: MPControls, value: int) -> None:
    """Raise the epoch gate, releasing children parked below ``value``."""
    with controls.gate_cond:
        controls.gate.value = value
        controls.gate_cond.notify_all()


#: Grace period between noticing a dead child and declaring the run
#: crashed — its final message may still be in flight through the queue's
#: feeder thread.
_DEAD_GRACE_S = 2.0

_MESSAGE_KINDS = ("ready", "epoch", "done")


def _collect(controls: MPControls, procs, want: str, deadline: float, early: list) -> dict:
    """Gather one message of kind ``want`` per rank: ``{rank: payload}``.

    Workers run ahead of the parent: a fast worker's ``done`` can be
    queued while a slower peer still steps its last epoch, so a message of
    another kind waits in ``early`` (shared across calls) for the call
    that wants it.  A child found dead without having delivered its
    message marks the run as crashed, after a short grace for in-flight
    queue data.
    """
    got = {m[1]: m[2:] for m in early if m[0] == want}
    early[:] = [m for m in early if m[0] != want]
    dead_since: float | None = None
    while len(got) < len(procs):
        if time.monotonic() > deadline:
            raise MPWorkerCrashed(
                f"timed out waiting for {want!r} reports "
                f"({len(got)}/{len(procs)} received)"
            )
        try:
            message = controls.queue.get(timeout=_POLL_S)
        except queue_mod.Empty:
            heard = set(got) | {m[1] for m in early}
            dead = [
                (rank, proc.exitcode)
                for rank, proc in enumerate(procs)
                if proc.exitcode is not None and rank not in heard
            ]
            if dead:
                now = time.monotonic()
                if dead_since is None:
                    dead_since = now
                elif now - dead_since > _DEAD_GRACE_S:
                    detail = ", ".join(f"worker {rank} exit={code}" for rank, code in dead)
                    raise MPWorkerCrashed(
                        f"worker process died before reporting {want!r} ({detail})"
                    )
            continue
        dead_since = None
        kind, rank = message[0], message[1]
        if kind == "error":
            raise MPWorkerCrashed(f"worker {rank} raised:\n{message[2]}")
        if kind == want:
            got[rank] = message[2:]
        elif kind in _MESSAGE_KINDS:
            early.append(message)
        else:
            raise MPWorkerCrashed(
                f"protocol error: expected {want!r} from workers, got "
                f"{kind!r} from worker {rank}"
            )
    return got
