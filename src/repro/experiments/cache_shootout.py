"""Cache shootout: every policy in the unified core on every trace class.

The payoff of folding the repo's five cache engines into
:mod:`repro.cache.core`: reactive eviction policies (FIFO/LRU/LFU/CLOCK/
2Q/ARC) and the paper's prefetch-based membership strategies
(CPS/DPS/ADAPTIVE) race on the *same* engine, same ledger, same hit
metering — so a hit-ratio difference is the policy and nothing else.

Three trace classes stress three regimes:

* **static** — a one-epoch training pull trace (the Table VI setting):
  a stationary Zipf-skewed access stream.  Foresight (DPS) wins; CPS is
  close behind because the distribution never moves.
* **drift** — a synthetic rotating-Zipf stream whose hot set is
  re-permuted every phase.  CPS's one-shot membership goes stale, the
  reactive policies re-learn with a lag, DPS re-tracks each window, and
  ADAPTIVE reacts at half-window granularity.
* **serving** — a Zipfian inference query log (entities + offset
  relations), the :mod:`repro.serving` workload shape.

Every cell also audits the central capacity invariant: the resident
count reported by the core must never exceed the capacity (the ledger
raises :class:`~repro.cache.core.CapacityError` otherwise — this is the
invariant the pre-core 2Q and serving-split bugs violated).

Runnable under ``--jobs``; the report is byte-identical to the serial
run (every cell is an independent seeded replay).
"""

from __future__ import annotations

import numpy as np

from repro.cache.core import make_cache, replay_membership_trace, replay_trace
from repro.experiments.common import (
    ExperimentResult,
    base_config,
    dataset_bundle,
)
from repro.experiments.cache_study import _access_trace
from repro.mp.pool import process_map
from repro.serving.workload import WorkloadSpec, ZipfianWorkload, zipf_probabilities

#: Reactive policies in report-column order (the registry of
#: repro.cache.core minus ``pinned``; a test keeps the two equal).
REACTIVE_POLICIES = ("fifo", "lru", "lfu", "clock", "2q", "arc")

#: Prefetch-based membership strategies (HotnessMembershipCache modes).
HOTNESS_MODES = ("cps", "dps", "adaptive")

#: Trace classes the shootout replays.
TRACES = ("static", "drift", "serving")

#: Cache capacity as a fraction of each trace's key vocabulary.
CAPACITY_FRACTION = 0.1

#: DPS/ADAPTIVE window, in batches (matches the Table VI dps_window).
WINDOW = 8


def _drift_trace(
    seed: int,
    vocab: int = 400,
    phases: int = 4,
    batches_per_phase: int = 30,
    batch_size: int = 32,
) -> list[np.ndarray]:
    """Rotating-Zipf access stream: the hot set moves every phase.

    Each phase draws Zipf-skewed ranks and maps them through a fresh
    random permutation of the key space, so which keys are hot rotates
    wholesale while the skew itself stays constant — the same workload
    shape as the streaming subsystem's ``rotation`` profile, but as a
    pure trace (no training loop).
    """
    rng = np.random.default_rng([seed, 421])
    probs = zipf_probabilities(vocab, 1.1)
    batches = []
    for _ in range(phases):
        perm = rng.permutation(vocab)
        for _ in range(batches_per_phase):
            ranks = rng.choice(vocab, size=batch_size, p=probs)
            batches.append(perm[ranks].astype(np.int64))
    return batches


def _serving_trace(
    bundle, seed: int, num_queries: int = 1500, batch_size: int = 32
) -> list[np.ndarray]:
    """Zipfian query-log trace over the unified entity+relation key space."""
    workload = ZipfianWorkload.from_graph(
        bundle.graph, WorkloadSpec(num_queries=num_queries, seed=seed)
    )
    log = workload.generate()
    offset = bundle.graph.num_entities
    batches = []
    for start in range(0, len(log.queries), batch_size):
        chunk = log.queries[start : start + batch_size]
        batches.append(
            np.concatenate(
                [
                    np.concatenate(
                        [q.entity_ids(), q.relation_ids() + offset]
                    )
                    for q in chunk
                ]
            ).astype(np.int64)
        )
    return batches


def _trace_and_capacity(
    trace_name: str, scale: float, seed: int
) -> tuple[list[np.ndarray], int]:
    """Build one trace class plus its vocabulary-proportional capacity."""
    if trace_name == "static":
        bundle = dataset_bundle("fb15k", scale=scale, seed=seed)
        config = base_config(seed=seed, batch_size=32, num_negatives=8)
        batches, _ = _access_trace(bundle, config, seed)
        vocab = bundle.graph.num_entities + bundle.graph.num_relations
    elif trace_name == "drift":
        batches = _drift_trace(seed)
        vocab = 400
    elif trace_name == "serving":
        bundle = dataset_bundle("fb15k", scale=scale, seed=seed)
        batches = _serving_trace(bundle, seed)
        vocab = bundle.graph.num_entities + bundle.graph.num_relations
    else:  # pragma: no cover - guarded by the task grid
        raise ValueError(f"unknown trace {trace_name!r}")
    return batches, max(4, int(vocab * CAPACITY_FRACTION))


def _run_cell(task: tuple[str, str, float, int]):
    """One (trace, policy) replay (module-level: picklable)."""
    trace_name, policy, scale, seed = task
    batches, capacity = _trace_and_capacity(trace_name, scale, seed)
    if policy in HOTNESS_MODES:
        hit_ratio = replay_membership_trace(
            batches, capacity, mode=policy, window=WINDOW
        )
    else:
        core = make_cache(policy, capacity)
        hit_ratio = replay_trace(core, np.concatenate(batches))
        assert len(core) <= capacity, (policy, len(core), capacity)
    return trace_name, policy, hit_ratio, capacity


def run_cache_shootout(
    scale: float = 0.05,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentResult:
    """Hit ratio of every registered policy on every trace class.

    ``jobs`` replays the (trace x policy) grid on worker processes; the
    report is byte-identical to ``jobs=1`` (every cell is an independent
    seeded replay).
    """
    policies = REACTIVE_POLICIES + HOTNESS_MODES
    tasks = [
        (trace, policy, scale, seed)
        for trace in TRACES
        for policy in policies
    ]
    outcomes = process_map(_run_cell, tasks, jobs=jobs)

    hit: dict[tuple[str, str], float] = {}
    capacities: dict[str, int] = {}
    for trace_name, policy, hit_ratio, capacity in outcomes:
        hit[(trace_name, policy)] = hit_ratio
        capacities[trace_name] = capacity

    rows = [
        [trace] + [hit[(trace, policy)] for policy in policies]
        for trace in TRACES
    ]

    # The shapes the unified engine must reproduce: prefetch foresight
    # (DPS) beats every reactive policy on the stationary trace, and
    # under rotation the one-shot CPS membership falls behind both DPS
    # and the drift-triggered ADAPTIVE.
    best_reactive = max(hit[("static", p)] for p in REACTIVE_POLICIES)
    assert hit[("static", "dps")] > best_reactive, (
        "expected DPS foresight to beat every reactive policy on the "
        f"stationary trace: dps={hit[('static', 'dps')]:.3f} vs best "
        f"reactive {best_reactive:.3f}"
    )
    assert hit[("drift", "dps")] > hit[("drift", "cps")], (
        "expected CPS to fall behind DPS under hot-set rotation: "
        f"cps={hit[('drift', 'cps')]:.3f} dps={hit[('drift', 'dps')]:.3f}"
    )
    assert hit[("drift", "adaptive")] > hit[("drift", "cps")], (
        "expected ADAPTIVE to beat CPS under hot-set rotation: "
        f"cps={hit[('drift', 'cps')]:.3f} "
        f"adaptive={hit[('drift', 'adaptive')]:.3f}"
    )

    capacity_note = ", ".join(
        f"{trace}={capacities[trace]}" for trace in TRACES
    )
    return ExperimentResult(
        experiment_id="cache-shootout",
        title="Unified-core cache shootout: reactive policies vs CPS/DPS/ADAPTIVE",
        headers=["trace"] + list(policies),
        rows=rows,
        notes=(
            "hit ratio per (trace, policy); every policy runs on the same "
            "repro.cache.core engine with ledger-enforced capacity "
            f"(capacities: {capacity_note}). asserted: DPS > all reactive "
            "policies on the stationary trace; DPS and ADAPTIVE > CPS "
            "under hot-set rotation."
        ),
    )
