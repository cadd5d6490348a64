"""Process-pool primitives shared by the mp backend and ``--jobs``.

Two consumers, one contract:

* ``--jobs`` (:func:`repro.experiments.registry.run_experiments`, sweeps
  and the grid runners) maps hermetic experiment tasks over a pool and
  requires submission-order results so parallel reports are
  byte-identical to serial ones;
* the mp serving path fans measured query streams over frontend processes.

Both get :func:`process_map`: order-preserving, inline when ``jobs <= 1``
(no pool, no pickling — the exact same function objects run), and
exception-transparent (the first failing task's exception propagates and
the pool is torn down).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_jobs() -> int:
    """A sensible ``--jobs`` auto value: one worker per available core.

    Prefers the scheduler affinity mask (what this process may actually
    use — containers routinely grant fewer cores than the host has) over
    the raw core count.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def process_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int = 1,
    start_method: str | None = None,
) -> list[R]:
    """Map ``fn`` over ``items``, preserving input order in the result.

    Parameters
    ----------
    fn:
        A module-level (picklable) function of one argument.
    items:
        Task inputs; each must be picklable when ``jobs > 1``.
    jobs:
        Worker process count.  ``jobs <= 1`` runs everything inline in
        this process — same function, same order, no pool overhead.
    start_method:
        Optional ``multiprocessing`` start method for the pool
        (``"spawn"``/``"fork"``/``"forkserver"``); ``None`` keeps the
        platform default.

    Any task exception propagates to the caller (remaining futures are
    abandoned when the pool shuts down).
    """
    tasks: Sequence[T] = list(items)
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    ctx = None
    if start_method is not None:
        import multiprocessing

        ctx = multiprocessing.get_context(start_method)
    results: list[Any] = [None] * len(tasks)
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)), mp_context=ctx
    ) as pool:
        futures = [pool.submit(fn, task) for task in tasks]
        for index, future in enumerate(futures):
            results[index] = future.result()
    return results
