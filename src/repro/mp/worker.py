"""Child-process side of the mp training backend.

Each worker process unpickles the parent's own worker, attached to the
parent's parameter server, from a :class:`WorkerSpec` — shared tables
arrive by segment name (:meth:`repro.mp.shm.SharedArena.loads`),
everything else by value — then runs the *same*
:meth:`repro.core.worker.Worker.step` loop the simulator runs, against
the parent's tables, and hands the advanced worker back in its ``done``
message (its ``PSChannel`` written as a persistent id, so the server never
travels back):

* ``schedule="sync"``: a global turn counter serializes steps in exactly
  the simulator's round-robin order (worker 0 step 1, worker 1 step 1, …),
  so every pull sees precisely the table state it would have seen in the
  simulator — bit-identical losses, clocks, and traffic, at the cost of
  zero overlap (it is the oracle, not the fast path).
* ``schedule="async"``: hogwild.  Workers free-run; a shared progress
  array bounds how far any worker may run ahead of the slowest
  (``staleness_bound`` steps, defaulting to the cache's sync period ``P``
  — the same budget the staleness-overrun counters measure), which keeps
  effective staleness in the regime the paper's bounded-staleness
  synchronization assumes.

Wall-clock accounting: the worker's :class:`~repro.faults.rpc.PSChannel`
(the one every backend pulls and pushes through) times the real seconds
spent inside the server; a step's protocol wait (turn or staleness bound)
is accumulated as stall time, and the waits at the start and epoch gates
— which every schedule pays, whatever its bound — as gate time.  All
three land in the ``wall`` dict of the final report for
:func:`repro.obs.reconcile.reconcile` to compare against the simulated
clock's predictions.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass

from repro.mp.shm import SharedArena, dumps

#: How long a blocked protocol wait sleeps between abort checks (seconds).
_POLL_S = 0.02

#: Exit code of a deliberately crashed worker (test hook).
CRASH_EXIT_CODE = 3


class WorkerAborted(Exception):
    """Raised inside a child when the run is being torn down."""


@dataclass
class WorkerSpec:
    """Everything one child needs to run its worker (all picklable)."""

    rank: int  # index in the spawned-worker order (== sim worker order)
    num_workers: int
    world: bytes  # SharedArena.dumps(worker) of the parent's own, attached
    epochs: int
    iterations: int  # steps per epoch (global max, like the simulator)
    schedule: str  # "sync" | "async"
    staleness_bound: int
    crash_at_step: tuple[int, int] | None = None  # (rank, step) test hook


class MPControls:
    """Synchronization primitives shared by parent and children.

    Built from one multiprocessing context and passed to every child at
    spawn time (all of these are picklable-by-inheritance).

    The epoch handshake is deliberately barrier-free: children report via
    ``queue`` and park on the ``gate`` (a monotone epoch counter the
    parent raises after evaluating), so a slow parent-side evaluation
    cannot trip a timeout, and teardown is always "set ``abort``, raise
    the gate" — no broken-barrier states to reason about.
    """

    def __init__(self, ctx, num_workers: int) -> None:
        self.queue = ctx.Queue()
        self.abort = ctx.Event()
        #: Epoch gate: children wait until ``gate >= epoch`` before the
        #: next epoch's writes (the parent evaluates in between).  Starts
        #: at -1; 0 releases the first epoch.
        self.gate_cond = ctx.Condition()
        self.gate = ctx.Value("q", -1, lock=False)
        #: Sync schedule: the global step counter children take turns on.
        self.turn_cond = ctx.Condition()
        self.turn = ctx.Value("q", 0, lock=False)
        #: Async schedule: per-worker completed-step counters, written
        #: under ``progress_cond``; ``waiters`` counts the workers blocked
        #: on it, so a step notifies only when someone is waiting.
        self.progress_cond = ctx.Condition()
        self.progress = ctx.Array("q", num_workers, lock=False)
        self.waiters = ctx.Value("q", 0, lock=False)


# --------------------------------------------------------------------- waits


def _check_alive(abort) -> None:
    """Bail out if the run was aborted or the parent died."""
    if abort.is_set():
        raise WorkerAborted()
    import multiprocessing

    parent = multiprocessing.parent_process()
    if parent is not None and not parent.is_alive():
        raise WorkerAborted()


def _await_gate(controls: MPControls, value: int) -> float:
    """Block until the parent raises the epoch gate to ``value``; returns
    the seconds blocked (0.0 when the gate was already open)."""
    with controls.gate_cond:
        if controls.gate.value >= value:
            return 0.0
        t0 = time.perf_counter()
        while controls.gate.value < value:
            _check_alive(controls.abort)
            controls.gate_cond.wait(_POLL_S)
    return time.perf_counter() - t0


def _await_turn(controls: MPControls, my_turn: int) -> float:
    """Block until the global step counter reaches ``my_turn``; returns
    the seconds blocked (0.0 when it was already this worker's turn)."""
    with controls.turn_cond:
        if controls.turn.value == my_turn:
            return 0.0
        t0 = time.perf_counter()
        while controls.turn.value != my_turn:
            _check_alive(controls.abort)
            controls.turn_cond.wait(_POLL_S)
    return time.perf_counter() - t0


def _finish_turn(controls: MPControls) -> None:
    with controls.turn_cond:
        controls.turn.value += 1
        controls.turn_cond.notify_all()


def _await_staleness(controls: MPControls, done_steps: int, bound: int) -> float:
    """Async guard: never run more than ``bound`` steps past the slowest.

    Returns the seconds blocked (0.0 when within the bound).  A blocked
    worker registers in ``waiters`` and sleeps on ``progress_cond`` until
    a step it waits for is published (:func:`_publish_progress`); the
    timeout is only the abort-check cadence.
    """
    progress = controls.progress
    with controls.progress_cond:
        if done_steps - min(progress) <= bound:
            return 0.0
        t0 = time.perf_counter()
        controls.waiters.value += 1
        try:
            while done_steps - min(progress) > bound:
                _check_alive(controls.abort)
                controls.progress_cond.wait(_POLL_S)
        finally:
            controls.waiters.value -= 1
    return time.perf_counter() - t0


def _publish_progress(controls: MPControls, rank: int, done_steps: int) -> None:
    """Record ``rank``'s completed steps; wake waiters only if any."""
    with controls.progress_cond:
        controls.progress[rank] = done_steps
        if controls.waiters.value:
            controls.progress_cond.notify_all()


# ---------------------------------------------------------------------- main


def worker_main(spec: WorkerSpec, controls: MPControls) -> None:
    """Child-process entry point (module-level: spawn-picklable)."""
    attached: list = []
    try:
        _run(spec, controls, attached)
    except WorkerAborted:
        pass  # the parent is tearing the run down; exit quietly
    except BaseException:
        controls.abort.set()
        try:
            controls.queue.put(("error", spec.rank, traceback.format_exc()))
        except Exception:
            pass
        raise
    finally:
        # _run's frame (and with it every ndarray view into the segments)
        # is gone on the happy path, so the detach succeeds; on error
        # paths the traceback may still pin views — skip the detach then
        # and let process exit reclaim the mappings (attachers never
        # unlink, so this cannot leak segments).
        import gc

        gc.collect()
        for array in attached:
            try:
                array.close()
            except BufferError:
                pass


def _run(spec: WorkerSpec, controls: MPControls, attached: list) -> None:
    """Unpickle the worker, run every epoch and send it back (see worker_main).

    Separated from :func:`worker_main` so that, on the happy path, this
    frame's death releases every ndarray view into the shared segments
    before the caller detaches them.  The parent keeps the books; the
    clock reading at entry only makes each epoch report this call's
    simulated seconds.
    """
    worker = SharedArena.loads(spec.world, attached)
    entry_clock = worker.clock.elapsed

    wall_start = time.perf_counter()
    stall_s = gate_s = 0.0
    stalls = 0

    worker.start()  # CPS/DPS setup + hot-table install (reads only)
    controls.queue.put(("ready", spec.rank))
    # Nobody writes tables until every cache installed its hot set —
    # otherwise a late installer would snapshot rows an early starter
    # already updated, which the simulator's serial order never does.
    gate_s += _await_gate(controls, 0)

    sync = spec.schedule == "sync"
    done_steps = 0
    for epoch in range(spec.epochs):
        losses: list[float] = []
        for it in range(spec.iterations):
            if spec.crash_at_step is not None and spec.crash_at_step == (
                spec.rank,
                done_steps + 1,
            ):
                os._exit(CRASH_EXIT_CODE)
            if sync:
                global_step = epoch * spec.iterations + it
                waited = _await_turn(
                    controls,
                    global_step * spec.num_workers + spec.rank,
                )
            else:
                waited = _await_staleness(
                    controls, done_steps, spec.staleness_bound
                )
            if waited > 0:
                stall_s += waited
                stalls += 1
            try:
                losses.append(worker.step())
            finally:
                if sync:
                    _finish_turn(controls)
            done_steps += 1
            if not sync:
                _publish_progress(controls, spec.rank, done_steps)

        controls.queue.put(
            (
                "epoch",
                spec.rank,
                epoch + 1,
                losses,
                worker.clock.elapsed - entry_clock,
            )
        )
        if epoch + 1 < spec.epochs:
            # Park while the parent evaluates over the (quiescent)
            # shared tables; no gate needed after the final epoch —
            # there are no further writes to fence off.
            gate_s += _await_gate(controls, epoch + 1)

    wall = {
        "wall_s": time.perf_counter() - wall_start,
        "stall_s": stall_s,
        "stalls": stalls,
        "gate_s": gate_s,
        "comm_wall_s": worker.server.comm_wall_s,
        "comm_calls": worker.server.comm_calls,
    }
    # The parent's server stays put: the channel to it travels as an id.
    back = dumps(worker, lambda o: "channel" if o is worker.server else None)
    controls.queue.put(("done", spec.rank, back, wall))
