"""The slot-map tiered store against the ``CacheTable``-backed one it replaced.

``repro/tier/store.py`` keeps the hot tier as a block -> slot map over one
flat array and moves only the blocks whose tier changes;
``tests/reference/tiered_store_reference.py`` keeps its predecessor — hot
blocks in a ``CacheTable``, every rebalance re-installing the whole hot
set — verbatim.  Both run the same operations and must agree after every
one of them on:

* what the operation returned: row bytes, or the exception type;
* ``TierStats.as_dict()``, ``report()`` and the budget ledger's charges;
* the ``tier.*`` clock, category by category, as ``float.hex`` — simulated
  time is a float sum, so one meter call out of order moves it;
* the hot membership, every block's residency state and the cold tier's
  encoded payload bytes.

The draw covers reads and writes through every key form the facade takes
(int, negative int, slice, id array, 2-D id array, boolean mask, list) with
duplicates and negative ids, out-of-range reads, ``t[key] -= step``,
manual and automatic rebalance passes, ``grow`` (the trailing partial
block hot, warm or cold), ``t[:] = ...`` and ``materialize``, over
``block_rows`` 1-8, budget slices from 0 to unlimited and ``cold_codec``
none / int8 / fp16.  The bench's ``train_tiered`` ends with no cold
blocks, so this is where the cold tier is compared.

Run with ``--hypothesis-seed=0`` for the CI draw.
"""

from __future__ import annotations

import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tier import MemoryBudget, TierCostModel, TierPolicy, TieredTable
from repro.tier.policy import TierMeter
from repro.utils.simclock import SimClock
from tests.reference import tiered_store_reference as reference

KEY_FORMS = ("int", "negative int", "slice", "array", "2-D array", "mask", "list")
OPS = (
    "read", "write", "isub", "out of range", "rebalance", "grow", "overwrite",
    "materialize",
)


# ------------------------------------------------------------------ helpers


def _pair(directory: str, array: np.ndarray, slice_bytes, policy: TierPolicy):
    """The live table and the reference over the same contents."""
    return [
        cls(
            array,
            name="entity",
            path=Path(directory) / f"{tag}.mmap",
            budget=MemoryBudget(None),
            slice_bytes=slice_bytes,
            policy=policy,
            meter=TierMeter(TierCostModel(), SimClock()),
        )
        for cls, tag in ((TieredTable, "live"), (reference.TieredTable, "reference"))
    ]


def _outcome(fn):
    """What ``fn()`` returned, or the type of the error it raised."""
    try:
        return fn()
    except (IndexError, ValueError) as exc:
        return type(exc)


def _both(fn, tables) -> list:
    return [_outcome(partial(fn, t)) for t in tables]


def _same_outcome(got, want) -> None:
    if isinstance(want, type) or want is None:
        assert got is want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _observable(table, hot: list[int]) -> dict:
    """Everything the two tables must agree on between operations."""
    return {
        "stats": table.stats.as_dict(),
        "report": table.report(),
        "charges": table._budget.charges(),
        "clock": {k: v.hex() for k, v in table.meter.breakdown().items()},
        "elapsed": table.meter.clock.elapsed.hex(),
        "hot": hot,
        "state": table._state.tobytes(),
        "cold": {
            b: [(a.dtype.str, a.shape, a.tobytes()) for a in payload]
            for b, payload in sorted(table._cold.items())
        },
    }


def _check(live, ref) -> None:
    assert _observable(live, live.hot_blocks().tolist()) == _observable(
        ref, sorted(ref._hot.ids.tolist())
    )


def _isub(key, step, table) -> None:
    table[key] -= step


def _draw_key(data, rng, rows: int):
    form = data.draw(st.sampled_from(KEY_FORMS), label="key form")
    if form == "slice":
        bound = st.none() | st.integers(-rows - 2, rows + 2)
        step = st.none() | st.sampled_from([-3, -1, 1, 2, 5])
        return slice(data.draw(bound), data.draw(bound), data.draw(step))
    if form == "mask":
        return rng.random(rows) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    if rows == 0:
        return np.zeros(0, dtype=np.int64)
    ids = st.integers(-rows, rows - 1)
    if form == "int":
        return data.draw(st.integers(0, rows - 1))
    if form == "negative int":
        return data.draw(st.integers(-rows, -1))
    if form == "list":
        return data.draw(st.lists(ids, min_size=1, max_size=6))
    flat = np.array(data.draw(st.lists(ids, max_size=16)), dtype=np.int64)
    if form == "2-D array":
        return flat[: len(flat) // 2 * 2].reshape(-1, 2)
    return flat


def _apply(data, rng, op: str, tables) -> list:
    """Run ``op`` on both tables with the same drawn arguments."""
    rows, width = tables[0].shape
    if op == "rebalance":
        return _both(lambda t: t.rebalance(), tables)
    if op == "materialize":
        return _both(lambda t: t.materialize(), tables)
    if op == "grow":
        new = rng.normal(size=(data.draw(st.integers(0, 6)), width))
        return _both(lambda t: t.grow(new), tables)
    if op == "overwrite":
        value = rng.normal(size=(rows, width))
        return _both(lambda t: t.__setitem__(slice(None), value), tables)
    if op == "out of range":
        bad = np.array([data.draw(st.sampled_from([rows, rows + 3, -rows - 1]))])
        return _both(lambda t: t[bad], tables)
    key = _draw_key(data, rng, rows)
    if op == "read":
        return _both(lambda t: t[key], tables)
    if op == "isub":
        return _both(partial(_isub, key, rng.normal()), tables)
    if data.draw(st.booleans(), label="one row per id"):
        value = rng.normal(size=np.zeros((rows, width))[key].shape)
    else:
        value = rng.normal(size=width)
    return _both(lambda t: t.__setitem__(key, value), tables)


# -------------------------------------------------------------------- suite


@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_every_operation_matches_the_reference(data):
    rows = data.draw(st.integers(0, 40), label="rows")
    width = data.draw(st.integers(1, 4), label="width")
    policy = TierPolicy(
        block_rows=data.draw(st.integers(1, 8), label="block_rows"),
        pass_rows=data.draw(st.integers(1, 48), label="pass_rows"),
        target_hit_rate=data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
        max_evict_per_pass=data.draw(st.integers(1, 4)),
        decay=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
        cold_after_passes=data.draw(st.integers(1, 3)),
        cold_codec=data.draw(st.sampled_from(["none", "int8", "fp16"])),
    )
    block_bytes = policy.block_rows * width * 8
    slice_bytes = data.draw(
        st.none() | st.integers(0, (rows // policy.block_rows + 2) * block_bytes),
        label="slice_bytes",
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    with tempfile.TemporaryDirectory(prefix="tier-eq-") as directory:
        tables = _pair(directory, rng.normal(size=(rows, width)), slice_bytes, policy)
        try:
            for _ in range(data.draw(st.integers(1, 30), label="ops")):
                op = data.draw(st.sampled_from(OPS), label="op")
                got, want = _apply(data, rng, op, tables)
                _same_outcome(got, want)
                _check(*tables)
            _same_outcome(tables[0].materialize(), tables[1].materialize())
        finally:
            for t in tables:
                t.close()


@pytest.mark.parametrize("codec", ["int8", "fp16"])
def test_a_scripted_run_through_every_tier_move(codec):
    """Each move a random draw may or may not reach, in one fixed run:
    blocks go cold, a write revives one, cold rows are read, a pass
    promotes from cold and from the file, a shift in traffic evicts, the
    hot trailing partial block is grown past, and a checkpoint restore
    drops the cold tier and refreshes the hot copies."""
    rng = np.random.default_rng(5)
    width, block_rows = 8, 4
    initial, restore = rng.normal(size=(30, width)), rng.normal(size=(35, width))
    policy = TierPolicy(
        block_rows=block_rows,
        pass_rows=10**9,
        target_hit_rate=1.0,
        max_evict_per_pass=2,
        cold_after_passes=1,
        cold_codec=codec,
    )
    steps = [
        lambda t: t.rebalance(),  # everything idle: blocks 0 and 1 go cold
        lambda t: t.__setitem__(np.array([5]), 1.5),  # revives block 1
        lambda t: t[np.arange(30)],  # cold reads from block 0
        lambda t: t.read(np.array([0, 1, 28, 29] * 3)),
        lambda t: t.rebalance(),  # promotes 0 (from cold), 7 (partial), 1, 2
        lambda t: t[np.array([0, 29, 12, -1])],
        lambda t: t.read(np.arange(8, 24).repeat(3)),
        lambda t: t.rebalance(),  # evicts 1 and 0; idle block 6 goes cold
        lambda t: t.grow(np.ones((5, width))),  # demotes hot block 7
        lambda t: t[np.arange(27, 35)],  # reads cold block 6
        lambda t: t.rebalance(),
        lambda t: t.rebalance(),
        lambda t: t.__setitem__(slice(None), restore),
        lambda t: t.materialize(),
    ]
    with tempfile.TemporaryDirectory(prefix="tier-eq-") as directory:
        slice_bytes = 4 * block_rows * width * 8 + 128  # four hot blocks and change
        tables = _pair(directory, initial, slice_bytes, policy)
        try:
            for step in steps:
                got, want = _both(step, tables)
                _same_outcome(got, want)
                _check(*tables)
            stats = tables[0].stats
            assert stats.promoted_from_cold >= 1 and stats.cold_rows > 4
            assert stats.encoded_blocks >= 3 and stats.evicted_blocks >= 2
            assert stats.writeback_bytes > 0
        finally:
            for t in tables:
                t.close()
