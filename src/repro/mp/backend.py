"""Parent-side orchestrator for the mp training backend.

``run_mp_training`` turns an already-configured trainer into a real
multi-process run:

1. ``trainer.setup(graph)`` builds the partition, tables, and the
   workers exactly as the simulator would;
2. every array of the server's state
   (:meth:`~repro.ps.server.ParameterServer.state_arrays`) is copied into
   a :class:`~repro.mp.shm.SharedArena` segment and the server is rebound
   onto the shared views, so the parent evaluates the same memory the
   children train;
3. the call's :class:`~repro.core.ledger.RunLedger` opens over
   ``trainer.workers``, then each worker, attached afresh, is shipped by
   :meth:`~repro.mp.shm.SharedArena.dumps` (the shared views by segment
   name) to one child process running :func:`repro.mp.worker.worker_main`;
   the parent collects per-epoch losses at a barrier, evaluates while the
   children are parked, puts the workers the children hand back into
   ``trainer.workers`` once every one has reported, and builds a normal
   :class:`~repro.core.trainer.TrainResult` from the ledger, as
   :meth:`~repro.core.trainer.HETKGTrainer.train` does — with per-epoch
   losses re-interleaved in the simulator's iteration-major/worker-minor
   order, which is what makes the ``sync`` schedule's ``np.mean`` (and
   therefore the golden fingerprints) bit-identical;
4. teardown is unconditional: whether the run finishes, raises, or a
   child dies mid-epoch, the server is rebound onto private copies
   *before* the arena unlinks its segments (ndarray views into a closed
   segment are fatal), and no ``/dev/shm`` entry survives.

Crash propagation: a child that exits without delivering its report trips
:class:`MPWorkerCrashed`; the abort event + barrier abort unblock every
sibling, which exit quietly.
"""

from __future__ import annotations

import queue as queue_mod
import time

import numpy as np

from repro.core.convergence import TrainingHistory
from repro.core.ledger import RunLedger, epoch_point
from repro.core.telemetry import Telemetry
from repro.mp.shm import SharedArena, loads
from repro.mp.worker import MPControls, WorkerSpec, worker_main

#: Seconds between liveness checks while waiting on children.
_POLL_S = 0.1

#: Default hard ceiling on a whole mp run — generous (training epochs on
#: the experiment datasets take seconds), but it converts a deadlocked
#: child into a diagnosable MPWorkerCrashed instead of a hang.
DEFAULT_TIMEOUT_S = 600.0

SCHEDULES = ("sync", "async")


class MPUnsupportedError(ValueError):
    """A configuration the mp backend does not support (use sim)."""


class MPWorkerCrashed(RuntimeError):
    """A worker process died (or stalled) before delivering its results."""


def run_mp_training(
    trainer,
    train_graph,
    eval_graph=None,
    filter_set=None,
    eval_every=None,
    eval_max_queries: int = 200,
    eval_candidates: int | None = 500,
    telemetry=None,
    *,
    schedule: str = "async",
    staleness_bound: int | None = None,
    start_method: str | None = None,
    timeout_s: float | None = None,
    crash_at_step: tuple[int, int] | None = None,
):
    """Train ``trainer`` with one OS process per worker over shared memory.

    See :meth:`repro.core.trainer.HETKGTrainer.train_mp` for the public
    entry point and parameter semantics.  ``crash_at_step`` is a test hook:
    ``(rank, step)`` makes that worker die abruptly (``os._exit``) right
    before the step, exercising crash propagation and leak-freedom.
    """
    import multiprocessing

    from repro.core.trainer import TrainResult

    if schedule not in SCHEDULES:
        raise MPUnsupportedError(
            f"unknown mp schedule {schedule!r}; expected one of {SCHEDULES}"
        )
    cfg = trainer.config
    if cfg.backing != "resident":
        raise MPUnsupportedError(
            "the mp backend requires the resident backing; tiered tables "
            "hold file handles and quantized blocks that cannot be shared "
            "across processes (run --backing tiered with --backend sim)"
        )
    bound = staleness_bound if staleness_bound is not None else cfg.sync_period
    if bound < 1:
        raise MPUnsupportedError(f"staleness bound must be >= 1, got {bound}")
    ctx = multiprocessing.get_context(start_method or "spawn")
    trainer.setup(train_graph)
    if not trainer.workers:
        raise MPUnsupportedError("setup produced no workers to parallelize")
    server = trainer.server
    num_workers = len(trainer.workers)
    iterations = trainer.steps_per_epoch
    deadline = time.monotonic() + (
        timeout_s if timeout_s is not None else DEFAULT_TIMEOUT_S
    )

    arena = SharedArena()
    procs: list = []
    controls: MPControls | None = None
    history = TrainingHistory()
    ledger = RunLedger(lambda: [w.stats() for w in trainer.workers])
    wall_start = time.perf_counter()
    try:
        # ---- move the global state into shared memory -------------------
        server.rebind(
            {name: arena.share(a) for name, a in server.state_arrays().items()}
        )

        # ---- spawn children --------------------------------------------
        controls = MPControls(ctx, num_workers)
        for rank, worker in enumerate(trainer.workers):
            # No instrument of an earlier call travels with the worker.
            worker.attach(
                server, telemetry=Telemetry() if telemetry is not None else None
            )
            spec = WorkerSpec(
                rank=rank,
                num_workers=num_workers,
                world=arena.dumps(worker),
                epochs=cfg.epochs,
                iterations=iterations,
                schedule=schedule,
                staleness_bound=bound,
                crash_at_step=crash_at_step,
            )
            proc = ctx.Process(
                target=worker_main, args=(spec, controls), daemon=True
            )
            proc.start()
            procs.append(proc)

        # ---- run epochs -------------------------------------------------
        rank_of = {w.machine: r for r, w in enumerate(trainer.workers)}
        stash: dict[str, list] = {}
        _collect(controls, procs, "ready", num_workers, deadline, stash)
        _set_gate(controls, 0)  # every hot table installed: start stepping
        for epoch in range(1, cfg.epochs + 1):
            reports = _collect(
                controls, procs, "epoch", num_workers, deadline, stash
            )
            losses_by_rank = {rank: payload[1] for rank, payload in reports.items()}
            epoch_clocks = [reports[r][2] for r in range(num_workers)]
            # The simulator appends losses iteration-major, worker-minor;
            # np.mean's pairwise summation is order-sensitive, so the mp
            # result must reassemble the identical sequence.
            interleaved = [
                losses_by_rank[rank][i]
                for i in range(iterations)
                for rank in range(num_workers)
            ]
            history.append(
                epoch_point(
                    trainer,
                    epoch,
                    max(epoch_clocks),
                    interleaved,
                    eval_graph,
                    filter_set,
                    eval_every,
                    eval_max_queries,
                    eval_candidates,
                )
            )
            _set_gate(controls, epoch)  # release the next epoch's writes

        # ---- final reports ---------------------------------------------
        done = _collect(controls, procs, "done", num_workers, deadline, stash)
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        wall_time_s = time.perf_counter() - wall_start
        memory_report = server.store.memory_report()

        # Every rank has reported: only now do the advanced workers replace
        # the ones the call found (the channel comes back as an id).
        returned = [loads(done[r][0], lambda _: None) for r in range(num_workers)]
        if telemetry is not None:
            # Restore the simulator's global step order (cumulative
            # per-worker iteration, then worker position).
            telemetry.records.extend(
                sorted(
                    (r for w in returned for r in w.telemetry.records),
                    key=lambda r: (r.iteration, rank_of[r.worker]),
                )
            )
        for worker in returned:
            worker.attach(server)
        trainer.workers[:] = returned

        worker_wall = {
            d.machine: {
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
            for rank, d in enumerate(ledger.deltas())
        }
        return TrainResult(
            config=cfg,
            system=trainer.system_name,
            history=history,
            memory_report=memory_report,
            backend=f"mp/{schedule}",
            wall_time_s=wall_time_s,
            worker_wall=worker_wall,
            **ledger.summary().fields_for(TrainResult),
        )
    except BaseException:
        _abort(controls, procs)
        raise
    finally:
        _restore_private(trainer)
        arena.close()


# ------------------------------------------------------------------ plumbing


def _abort(controls, procs) -> None:
    """Unblock and stop every child (teardown path)."""
    if controls is not None:
        controls.abort.set()
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=10.0)


def _restore_private(trainer) -> None:
    """Copy shared views back into private arrays (before arena close).

    After the arena unlinks its segments every ndarray view into them is a
    dangling mapping — touching one is a segfault, not an exception.  The
    trainer object outlives the run (evaluate, checkpoint, repeated
    train calls), so it must leave holding private memory.
    """
    server = trainer.server
    if server is not None:
        server.rebind({n: np.array(a) for n, a in server.state_arrays().items()})


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


def _collect(
    controls: MPControls,
    procs,
    want: str,
    count: int,
    deadline: float,
    stash: dict[str, list] | None = None,
) -> dict[int, tuple]:
    """Gather ``count`` messages of kind ``want`` (one per rank).

    Workers run ahead of the parent: a fast worker's final-epoch report
    and its ``done`` report can both be queued while a slower peer is
    still stepping, so messages of *other* kinds are stashed (in ``stash``,
    shared across calls) rather than treated as protocol errors.  A child
    found dead without having delivered its message marks the run as
    crashed, after a short grace for in-flight queue data.
    """
    got: dict[int, tuple] = {}
    dead_since: float | None = None
    pending = stash.setdefault(want, []) if stash is not None else []
    while pending and len(got) < count:
        message = pending.pop(0)
        got[message[1]] = tuple(message[2:])
    while len(got) < count:
        if time.monotonic() > deadline:
            raise MPWorkerCrashed(
                f"timed out waiting for {want!r} reports "
                f"({len(got)}/{count} received)"
            )
        try:
            message = controls.queue.get(timeout=_POLL_S)
        except queue_mod.Empty:
            dead = [
                (rank, proc.exitcode)
                for rank, proc in enumerate(procs)
                if proc.exitcode is not None
                and rank not in got
                and not _stashed(stash, rank)
            ]
            if dead:
                now = time.monotonic()
                if dead_since is None:
                    dead_since = now
                elif now - dead_since > _DEAD_GRACE_S:
                    detail = ", ".join(
                        f"worker {rank} exit={code}" for rank, code in dead
                    )
                    raise MPWorkerCrashed(
                        f"worker process died before reporting {want!r} "
                        f"({detail})"
                    )
            continue
        dead_since = None
        kind, rank = message[0], message[1]
        if kind == "error":
            raise MPWorkerCrashed(f"worker {rank} raised:\n{message[2]}")
        if kind == want:
            got[rank] = tuple(message[2:])
        elif kind in _MESSAGE_KINDS and stash is not None:
            stash.setdefault(kind, []).append(message)
        else:
            raise MPWorkerCrashed(
                f"protocol error: expected {want!r} from workers, got "
                f"{kind!r} from worker {rank}"
            )
    return got


def _stashed(stash: dict[str, list] | None, rank: int) -> bool:
    """Whether any stashed message came from ``rank`` (it is alive enough)."""
    if not stash:
        return False
    return any(m[1] == rank for messages in stash.values() for m in messages)
