"""Real-parallelism execution backend: worker processes over shared memory.

The simulator (:mod:`repro.core.trainer`) interleaves workers round-robin
over :class:`~repro.utils.simclock.SimClock` — perfectly deterministic, but
every "parallel" number is simulated.  This package runs the simulator's
own workers in actual OS processes over
``multiprocessing.shared_memory``-backed parameter-server tables:

* :mod:`repro.mp.shm` — SharedMemory-backed ndarray storage, one array
  per segment: ``SharedArena.share`` moves an array into a segment,
  ``dumps``/``loads`` pickle an object graph with those arrays travelling
  by segment name (zero-copy attach in children), and cleanup is
  leak-proof (pid-guarded finalizers + context managers).
* :mod:`repro.mp.pool` — small process-pool utilities shared with the
  ``--jobs`` parallel experiment runner.
* :mod:`repro.mp.worker` — the child-process entry point: unpickles the
  parent's worker and server over the shared tables, runs either the
  ``sync`` schedule (turn-taking in the simulator's round-robin order —
  bit-identical results) or the ``async`` schedule (hogwild with a
  bounded-staleness guard — the fast path), and hands the worker back.
* :mod:`repro.mp.backend` — the parent-side executor of
  ``HETKGTrainer.train(backend="mp")``: it runs the epochs in the
  children and puts the workers they hand back into the trainer; the
  call itself is the simulator's.
* :mod:`repro.mp.serve` — multi-process ``serve-bench``: copies of one
  frontend over a shared embedding store.

Determinism contract: ``schedule="sync"`` serializes steps in exactly the
simulator's order, so losses, embeddings, SimClock categories, and
CommRecord totals are bit-identical to ``backend="sim"`` (asserted against
the golden fingerprints).  ``schedule="async"`` trades that for real
concurrency; divergence is bounded by the staleness guard (default: the
cache's sync period ``P``).
"""

from repro.mp.backend import MPUnsupportedError, MPWorkerCrashed
from repro.mp.pool import default_jobs, process_map
from repro.mp.serve import MPServingResult, serve_mp
from repro.mp.shm import SharedArena, SharedArray, shm_segments

__all__ = [
    "MPServingResult",
    "MPUnsupportedError",
    "MPWorkerCrashed",
    "default_jobs",
    "process_map",
    "serve_mp",
    "SharedArena",
    "SharedArray",
    "shm_segments",
]
