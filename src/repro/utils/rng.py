"""Deterministic random number generation.

Every stochastic component in the library takes an explicit
:class:`numpy.random.Generator`.  This module is the single place that
creates them, so a whole experiment is reproducible from one integer seed.
"""

from __future__ import annotations

import numpy as np

#: Default seed used across examples and benchmarks.
DEFAULT_SEED = 20220406  # ICDE 2022 paper presentation week.


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be an integer, ``None`` (uses :data:`DEFAULT_SEED`), or an
    existing generator, which is passed through unchanged so call sites can
    accept either form.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def split_worker_streams(rng: np.random.Generator, count: int) -> list[int]:
    """Derive ``count`` independent per-worker stream *seeds* from ``rng``.

    The trainer's ``setup()`` seeds each worker's negative and epoch
    samplers from these.

    The derivation is prefix-stable: ``split_worker_streams(rng, n)`` is a
    prefix of what ``split_worker_streams(rng, m)`` would have produced
    from the same generator state for ``m > n``.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [int(s) for s in seeds]


def spawn_rngs(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``count`` independent child generators.

    Used to give each simulated worker its own stream so the behaviour of a
    worker does not depend on how many draws its peers made.  Equivalent to
    seeding a fresh generator from each :func:`split_worker_streams` seed.
    """
    return [np.random.default_rng(s) for s in split_worker_streams(rng, count)]


def worker_stream(seed: int, machine: int) -> np.random.Generator:
    """An independent stream for ``machine`` derived from a scalar ``seed``.

    Seeding with the ``[seed, machine]`` entropy sequence gives every
    machine its own stream without consuming draws from any shared
    generator — what a machine draws is a pure function of ``(seed,
    machine)``, independent of its peers.  Used by the fault injector (and
    available to any per-machine component that must not perturb the
    training streams).
    """
    return np.random.default_rng([int(seed), int(machine)])


def derive_stream(seed: int, salt: int) -> np.random.Generator:
    """A dedicated side-stream at ``seed + salt``.

    For components that need randomness decoupled from the training draw
    sequence (e.g. streaming ingestion's cold-start initialisation): the
    salt offsets the master seed so the side-stream never collides with the
    per-worker streams, and consuming from it cannot shift any other
    component's draws.
    """
    return make_rng(int(seed) + int(salt))
