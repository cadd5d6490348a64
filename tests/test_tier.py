"""Tests for the tiered embedding store (repro.tier).

Covers the three contracts the subsystem promises:

* **exactness** — hot and warm reads are bit-identical to a dense table;
  a cold read is exactly one wire-codec round-trip of error; the default
  ``backing="resident"`` path is untouched.
* **budget** — resident bytes never exceed the configured slice after a
  rebalance pass, and the ledger's set-semantics cannot drift.
* **determinism** — identical traffic yields identical membership, and
  growth/checkpoint paths move exactly the bytes they claim to.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.core.trainer import HETKGTrainer, make_trainer
from repro.ps.compression import get_compressor
from repro.ps.kvstore import ShardedKVStore
from repro.tier import (
    BudgetExceededError,
    MemoryBudget,
    TierConfig,
    TierCostModel,
    TierPolicy,
    TierRuntime,
    TieredTable,
    format_bytes,
    parse_bytes,
)
from repro.tier.policy import TierMeter
from repro.tier.store import COLD, HOT, WARM
from repro.utils.rng import make_rng
from repro.utils.simclock import SimClock


def make_table(
    tmp_path,
    array,
    slice_bytes=None,
    clock=None,
    **policy_overrides,
) -> TieredTable:
    policy = TierPolicy(**policy_overrides)
    return TieredTable(
        np.asarray(array, dtype=np.float64),
        name="t",
        path=tmp_path / "t.mmap",
        budget=MemoryBudget(None),
        slice_bytes=slice_bytes,
        policy=policy,
        meter=TierMeter(TierCostModel(), clock or SimClock()),
    )


def rand_table(rows, width, seed=0):
    return make_rng(seed).normal(0.0, 1.0, size=(rows, width))


# ---------------------------------------------------------------- budget math


class TestParseBytes:
    def test_plain_and_suffixed(self):
        assert parse_bytes(4096) == 4096
        assert parse_bytes("512") == 512
        assert parse_bytes("64M") == 64 * 1024**2
        assert parse_bytes("2GB") == 2 * 1024**3
        assert parse_bytes("1.5k") == 1536
        assert parse_bytes("8KiB".replace("i", "")) == 8192

    def test_none_passthrough(self):
        assert parse_bytes(None) is None

    def test_rejects_bad_values(self):
        for bad in ("64X", "junk", "-5M", "0", -1, 0, float("inf"), float("nan")):
            with pytest.raises((ValueError, TypeError)):
                parse_bytes(bad)
        with pytest.raises(TypeError):
            parse_bytes(True)

    def test_format(self):
        assert format_bytes(None) == "unlimited"
        assert format_bytes(512) == "512B"
        assert format_bytes(2048) == "2.0KiB"
        assert format_bytes(3 * 1024**2) == "3.0MiB"


class TestMemoryBudget:
    def test_charges_are_absolute(self):
        b = MemoryBudget(1000)
        b.charge("t.hot", 400)
        b.charge("t.hot", 300)  # replaces, does not accumulate
        assert b.used() == 300
        assert b.remaining() == 700

    def test_overflow_raises(self):
        b = MemoryBudget(1000)
        b.charge("t.hot", 900)
        with pytest.raises(BudgetExceededError):
            b.charge("t.cold", 200)
        # The failed charge must not corrupt the ledger.
        assert b.used() == 900

    def test_zero_charge_clears_key(self):
        b = MemoryBudget(1000)
        b.charge("t.hot", 100)
        b.charge("t.hot", 0)
        assert b.charges() == {}

    def test_unlimited(self):
        b = MemoryBudget(None)
        assert b.unlimited
        b.charge("t.hot", 10**15)
        assert b.fits(10**15)

    def test_rejects_non_positive_total(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)


# ---------------------------------------------------------------- cold codecs


class TestBlockCodecs:
    @staticmethod
    def _blockwise(codec, rows, block=4):
        """What the cold tier does: keep each block's ``encode`` payload,
        read it back through ``decode``."""
        payloads = [codec.encode(rows[i : i + block]) for i in range(0, len(rows), block)]
        return np.concatenate([codec.decode(p) for p in payloads])

    def test_int8_matches_wire_codec_bitwise(self):
        """Cold reads must cost exactly one wire round-trip of error —
        pinned by bit-equality with ``Int8Compression.roundtrip``."""
        rows = rand_table(16, 8, seed=3)
        rows[2] = 5.0  # degenerate row exercises the span guard
        codec = get_compressor("int8")
        assert np.array_equal(self._blockwise(codec, rows), codec.roundtrip(rows))

    def test_fp16_matches_wire_codec_bitwise(self):
        rows = rand_table(16, 8, seed=4)
        codec = get_compressor("fp16")
        assert np.array_equal(self._blockwise(codec, rows), codec.roundtrip(rows))
        assert np.array_equal(
            codec.roundtrip(rows), rows.astype(np.float16).astype(np.float64)
        )

    def test_nbytes_accounts_payload(self):
        rows = rand_table(8, 6)
        payload = get_compressor("int8").encode(rows)
        assert sum(a.nbytes for a in payload) == 8 * 6 + 2 * 8 * 8  # q + lo + span
        assert get_compressor("int8").resident_bytes_per_row(6) == 6 + 16
        assert get_compressor("fp16").resident_bytes_per_row(6) == 12

    def test_none_codec(self):
        """``"none"`` is the identity on the wire and "no cold tier" to a
        tiered table; unknown names are rejected by both."""
        rows = rand_table(4, 4)
        none = get_compressor("none")
        assert none.decode(none.encode(rows)) is rows
        with pytest.raises(KeyError):
            get_compressor("zstd")
        with pytest.raises(ValueError):
            TierPolicy(cold_codec="zstd")


# ------------------------------------------------------------- table facade


class TestTieredTableFacade:
    def test_all_warm_reads_bit_identical(self, tmp_path):
        src = rand_table(100, 6, seed=1)
        t = make_table(tmp_path, src, block_rows=8)
        ids = np.asarray([0, 7, 8, 55, 99, 3])
        assert np.array_equal(t[ids], src[ids])
        assert np.array_equal(np.asarray(t), src)
        assert np.array_equal(t[10:20], src[10:20])

    def test_ndarray_idioms(self, tmp_path):
        src = rand_table(40, 4, seed=2)
        t = make_table(tmp_path, src, block_rows=8)
        assert t.shape == (40, 4)
        assert len(t) == 40
        assert t.ndim == 2
        assert t.dtype == np.float64
        assert t.nbytes == 40 * 4 * 8
        assert np.array_equal(t[-1], src[-1])  # negative index
        mask = np.zeros(40, dtype=bool)
        mask[[3, 17]] = True
        assert np.array_equal(t[mask], src[mask])
        assert np.zeros_like(t).shape == (40, 4)

    def test_optimizer_idiom_in_place_subtract(self, tmp_path):
        """``table[ids] -= step`` is the sparse-SGD hot path; it must land
        exactly (read-modify-write through whatever tier holds the row)."""
        src = rand_table(64, 4, seed=5)
        expect = src.copy()
        t = make_table(tmp_path, src, block_rows=8)
        ids = np.asarray([0, 9, 33, 63])
        step = np.full((4, 4), 0.125)
        t[ids] -= step
        expect[ids] -= step
        assert np.array_equal(np.asarray(t), expect)

    def test_out_of_range_raises(self, tmp_path):
        t = make_table(tmp_path, rand_table(10, 2), block_rows=8)
        with pytest.raises(IndexError):
            t[np.asarray([10])]
        with pytest.raises(IndexError):
            t[np.asarray([-11])]

    def test_full_slice_assign_restores(self, tmp_path):
        t = make_table(tmp_path, rand_table(32, 4, seed=6), block_rows=8)
        replacement = rand_table(32, 4, seed=7)
        t[:] = replacement
        assert np.array_equal(np.asarray(t), replacement)
        with pytest.raises(ValueError):
            t[:] = rand_table(31, 4)


# ------------------------------------------------------------------ key forms


KEY_FORMS = {
    "int": 3,
    "negative int": -2,
    "slice": slice(1, 9, 3),
    "int array": np.array([0, 9, 3, 3, -1]),
    "2-D int array": np.array([[1, 2], [8, -10]]),
    "bool mask": np.arange(10) % 3 == 0,
    "short bool mask": np.array([True, False]),
    "float array": np.array([3.7]),
    "list": [4, 0, -10],
}


def _outcome(fn):
    """What ``fn()`` returned, or the type of the error it raised."""
    try:
        return fn()
    except (IndexError, ValueError) as exc:
        return type(exc)


class TestKeyForms:
    """Every key form answers as a resident ndarray answers it: the same
    rows, or the same exception type, on reads and on writes, with the
    table's blocks split between the hot and the warm tier."""

    @staticmethod
    def _tables(tmp_path):
        dense = rand_table(10, 3, seed=24)
        t = make_table(
            tmp_path, dense, block_rows=4, pass_rows=10**9,
            target_hit_rate=1.0, cold_codec="none",
        )
        t.read(np.arange(8))
        t.rebalance()
        assert t.hot_blocks().tolist() == [0, 1]  # rows 8 and 9 stay warm
        return dense, t

    @pytest.mark.parametrize("form", list(KEY_FORMS))
    def test_read(self, tmp_path, form):
        dense, t = self._tables(tmp_path)
        key = KEY_FORMS[form]
        want, got = _outcome(lambda: dense[key]), _outcome(lambda: t[key])
        if isinstance(want, type):
            assert got is want
        else:
            assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("form", list(KEY_FORMS))
    def test_write(self, tmp_path, form):
        dense, t = self._tables(tmp_path)
        key, row = KEY_FORMS[form], np.array([0.25, -1.5, 4.0])
        want = _outcome(lambda: dense.__setitem__(key, row))
        assert _outcome(lambda: t.__setitem__(key, row)) is want
        assert np.array_equal(np.asarray(t), dense)


# ------------------------------------------------------------ residency/budget


class TestResidency:
    def test_skewed_traffic_promotes_within_budget(self, tmp_path):
        src = rand_table(256, 4, seed=8)
        block_bytes = 8 * 4 * 8
        t = make_table(
            tmp_path,
            src,
            slice_bytes=4 * block_bytes,
            block_rows=8,
            pass_rows=64,
            target_hit_rate=1.0,
            cold_codec="none",
        )
        hot_ids = np.arange(32)  # blocks 0..3
        for _ in range(8):
            t.read(hot_ids)
        assert t.resident_bytes() <= 4 * block_bytes
        assert t.stats.promoted_blocks > 0
        assert t.hot_fraction() <= 32 / 256
        # Promoted reads stay exact.
        assert np.array_equal(t[hot_ids], src[hot_ids])

    def test_max_evict_per_pass_bounds_churn(self, tmp_path):
        src = rand_table(128, 4, seed=9)
        block_bytes = 8 * 4 * 8
        t = make_table(
            tmp_path,
            src,
            slice_bytes=4 * block_bytes,
            block_rows=8,
            pass_rows=10**9,  # rebalance manually
            target_hit_rate=1.0,
            max_evict_per_pass=2,
            cold_codec="none",
        )
        t.read(np.arange(32))  # blocks 0..3 hot
        t.rebalance()
        assert t.hot_blocks().tolist() == [0, 1, 2, 3]
        for _ in range(4):  # new hotness: blocks 8..11
            t.read(np.arange(64, 96))
        t.rebalance()
        assert t.stats.evicted_blocks == 2  # churn bounded below the 4 desired
        assert len(t.hot_blocks()) == 4

    def test_target_hit_rate_short_circuits_pass(self, tmp_path):
        t = make_table(
            tmp_path,
            rand_table(64, 4, seed=10),
            block_rows=8,
            pass_rows=10**9,
            target_hit_rate=0.0,  # any traffic satisfies the target
        )
        t.read(np.arange(16))
        t.rebalance()
        assert t.stats.skipped_passes == 1
        assert t.stats.promoted_blocks == 0  # skipped passes do no repack

    def test_rebalance_deterministic(self, tmp_path):
        traffic = [np.arange(24), np.arange(40, 64), np.arange(8)]
        members, snapshots = [], []
        for run in range(2):
            sub = tmp_path / f"run{run}"
            sub.mkdir()
            t = make_table(
                sub,
                rand_table(64, 4, seed=11),
                slice_bytes=3 * 8 * 4 * 8,
                block_rows=8,
                pass_rows=16,
                target_hit_rate=1.0,
                cold_codec="none",
            )
            for ids in traffic:
                t.read(ids)
            members.append(t.hot_blocks().tolist())
            snapshots.append(np.asarray(t))
        assert members[0] == members[1]
        assert np.array_equal(snapshots[0], snapshots[1])


class TestColdTier:
    def _idle_table(self, tmp_path, src, **kw):
        t = make_table(
            tmp_path,
            src,
            block_rows=8,
            pass_rows=10**9,
            cold_after_passes=1,
            max_evict_per_pass=64,
            **kw,
        )
        # Empty-window passes age every block; the sweep then encodes them.
        t.rebalance()
        t.rebalance()
        return t

    def test_idle_blocks_quantize_and_read_lossy(self, tmp_path):
        src = rand_table(64, 4, seed=12)
        t = self._idle_table(tmp_path, src, cold_codec="int8")
        assert t.stats.encoded_blocks == 8
        assert np.all(t._state == COLD)
        wire = get_compressor("int8")
        got = t[np.arange(64)]
        assert np.array_equal(got, wire.roundtrip(src))
        assert t.stats.cold_rows == 64

    def test_write_revives_cold_block(self, tmp_path):
        src = rand_table(64, 4, seed=13)
        t = self._idle_table(tmp_path, src, cold_codec="int8")
        fresh = np.full((1, 4), 7.25)
        t[np.asarray([3])] = fresh
        assert t._state[0] == WARM  # block revived, payload dropped
        assert np.array_equal(t[np.asarray([3])], fresh)

    def test_codec_none_disables_sweep(self, tmp_path):
        t = self._idle_table(tmp_path, rand_table(64, 4), cold_codec="none")
        assert t.stats.encoded_blocks == 0
        assert np.all(t._state == WARM)

    def test_cold_blocks_count_against_budget(self, tmp_path):
        src = rand_table(256, 4, seed=14)
        enc_bytes = (4 + 16) * 8  # int8 bytes_per_row * block_rows
        t = make_table(
            tmp_path,
            src,
            slice_bytes=4 * enc_bytes,
            block_rows=8,
            pass_rows=10**9,
            cold_after_passes=1,
            max_evict_per_pass=64,
            cold_codec="int8",
        )
        t.rebalance()
        t.rebalance()
        assert t.stats.encoded_blocks == 4  # budget bound, not candidate count
        assert t.resident_bytes() <= 4 * enc_bytes


class TestGrow:
    def test_grow_extends_in_place(self, tmp_path):
        src = rand_table(20, 4, seed=15)
        t = make_table(tmp_path, src, block_rows=8)
        extra = rand_table(12, 4, seed=16)
        t.grow(extra)
        assert t.shape == (32, 4)
        assert np.array_equal(np.asarray(t), np.concatenate([src, extra]))
        # Only the appended rows were written — no whole-file copy.
        assert t.stats.grow_bytes_written == 12 * 4 * 8
        assert os.path.getsize(t._path) == 32 * 4 * 8

    def test_grow_with_hot_trailing_block(self, tmp_path):
        src = rand_table(20, 4, seed=17)
        t = make_table(
            tmp_path,
            src,
            block_rows=8,
            pass_rows=8,
            target_hit_rate=1.0,
            cold_codec="none",
        )
        t.read(np.asarray([16, 17, 18, 19] * 2))  # promote the partial block
        assert t._state[2] == HOT
        extra = rand_table(6, 4, seed=18)
        t.grow(extra)
        assert np.array_equal(np.asarray(t), np.concatenate([src, extra]))

    def test_grow_metered(self, tmp_path):
        clock = SimClock()
        t = make_table(tmp_path, rand_table(16, 4), clock=clock, block_rows=8)
        t.grow(rand_table(8, 4, seed=19))
        assert clock.elapsed > 0
        assert clock.category("tier.grow") > 0


# ------------------------------------------------------------------ runtime


class TestTierRuntime:
    def test_budget_split_proportional(self, tmp_path):
        rt = TierRuntime(
            {"entity": rand_table(96, 4), "relation": rand_table(32, 4)},
            TierConfig(budget=1024, directory=tmp_path / "tier"),
        )
        ent = rt.tables["entity"]._slice
        rel = rt.tables["relation"]._slice
        assert ent == 768 and rel == 256  # 3:1 logical split
        rt.close()

    def test_close_removes_shards_keeps_explicit_dir(self, tmp_path):
        scratch = tmp_path / "scratch"
        rt = TierRuntime({"entity": rand_table(16, 4)}, TierConfig(directory=scratch))
        shard = scratch / "entity.mmap"
        assert shard.exists()
        rt.close()
        assert not shard.exists()
        assert scratch.exists()  # caller's directory is preserved

    def test_owned_temp_dir_removed(self):
        rt = TierRuntime({"entity": rand_table(16, 4)}, TierConfig())
        directory = rt.directory
        assert os.path.isdir(directory)
        rt.close()
        assert not os.path.exists(directory)

    def test_memory_report_shape(self, tmp_path):
        rt = TierRuntime(
            {"entity": rand_table(64, 4), "relation": rand_table(16, 4)},
            TierConfig(budget="4K", directory=tmp_path / "tier"),
        )
        report = rt.memory_report()
        assert report["backing"] == "tiered"
        assert report["budget_bytes"] == 4096
        assert set(report["tables"]) == {"entity", "relation"}
        for t in report["tables"].values():
            for key in ("hot_blocks", "cold_blocks", "warm_blocks", "hit_ratio"):
                assert key in t
        rt.close()


# ------------------------------------------------------------ kvstore wiring


def tiered_store(num_entities=64, num_relations=8, width=4, **tier_kw):
    ent = rand_table(num_entities, width, seed=20)
    rel = rand_table(num_relations, width, seed=21)
    owner = np.arange(num_entities, dtype=np.int64) % 2
    cfg = TierConfig(**tier_kw) if tier_kw else None
    return (
        ShardedKVStore(ent.copy(), rel.copy(), owner, 2, backing="tiered", tier=cfg),
        ent,
        rel,
    )


class TestKVStoreTiered:
    def test_read_write_equivalence(self, tmp_path):
        store, ent, _ = tiered_store(directory=tmp_path / "kv")
        ids = np.asarray([0, 5, 63])
        assert np.array_equal(store.read("entity", ids), ent[ids])
        rows = np.full((3, 4), 2.5)
        store.write("entity", ids, rows)
        assert np.array_equal(store.read("entity", ids), rows)
        store.close()

    def test_grow_through_store(self, tmp_path):
        store, ent, _ = tiered_store(directory=tmp_path / "kv")
        new = rand_table(10, 4, seed=22)
        store.grow("entity", new)
        assert len(store.table("entity")) == 74
        assert np.array_equal(
            store.read("entity", np.arange(64, 74)), new
        )
        assert len(store.owners("entity", np.arange(74))) == 74
        store.close()

    def test_resident_report_matches_schema(self):
        ent, rel = rand_table(8, 4), rand_table(4, 4)
        store = ShardedKVStore(ent, rel, np.zeros(8, dtype=np.int64), 1)
        report = store.memory_report()
        assert report["backing"] == "resident"
        assert report["resident_bytes"] == report["logical_bytes"]
        assert set(report["tables"]) == {"entity", "relation"}
        store.close()  # no-op for resident

    def test_memory_bytes_is_logical_for_both_backings(self, tmp_path):
        store, ent, rel = tiered_store(directory=tmp_path / "kv")
        assert store.memory_bytes() == ent.nbytes + rel.nbytes
        store.close()


# --------------------------------------------------------- trainer integration


def tier_config(**overrides):
    defaults = dict(
        model="transe",
        dim=8,
        epochs=1,
        batch_size=16,
        num_negatives=4,
        num_machines=2,
        cache_capacity=64,
        dps_window=4,
        sync_period=4,
        cache_strategy="dps",
        seed=0,
        wire_dim=None,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


class TestTrainerIntegration:
    def test_tiered_unlimited_is_bit_identical(self, small_split, tmp_path):
        """backing="tiered" with no budget and cold_codec="none" must be a
        pure representation change: same losses, same tables, same clock —
        for HET-KG's workers and for PBG's bucket schedule alike."""
        for system in ("hetkg-d", "pbg"):
            resident = make_trainer(system, tier_config())
            res = resident.train(small_split.train)
            tiered = make_trainer(
                system,
                tier_config(
                    backing="tiered",
                    tier_cold_codec="none",
                    tier_block_rows=32,
                    tier_dir=str(tmp_path / system),
                ),
            )
            tie = tiered.train(small_split.train)
            for kind in ("entity", "relation"):
                assert np.array_equal(
                    np.asarray(resident.server.store.table(kind)),
                    np.asarray(tiered.server.store.table(kind)),
                ), (system, kind)
            assert res.history.losses() == tie.history.losses(), system
            assert res.sim_time == tie.sim_time, system
            assert tie.tier_time > 0.0, system
            assert res.tier_time == 0.0
            tiered.server.store.close()

    def test_oversubscribed_checkpoint_roundtrip(self, small_split, tmp_path):
        """Save under memory pressure, load into a fresh oversubscribed
        trainer: every gathered row must be bit-identical to the saved
        logical table."""
        from repro.core.checkpoint import load_checkpoint, save_checkpoint

        overrides = dict(
            backing="tiered",
            memory_budget="24K",
            tier_block_rows=16,
            epochs=1,
        )
        trainer = HETKGTrainer(tier_config(**overrides, tier_dir=str(tmp_path / "a")))
        trainer.train(small_split.train)
        store = trainer.server.store
        assert store.resident_bytes() <= 24 * 1024
        snapshot = np.asarray(store.table("entity"))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(trainer, path)

        other = HETKGTrainer(tier_config(**overrides, tier_dir=str(tmp_path / "b")))
        other.setup(small_split.train)
        load_checkpoint(other, path)
        restored = other.server.store
        ids = np.arange(len(snapshot), dtype=np.int64)
        assert np.array_equal(restored.read("entity", ids), snapshot)
        assert restored.resident_bytes() <= 24 * 1024
        store.close()
        restored.close()

    def test_memory_report_reaches_telemetry(self, small_split, tmp_path):
        """The report travels on the TrainResult (Telemetry's copy of it
        is gone; the name is kept for the test-id floor)."""
        trainer = HETKGTrainer(
            tier_config(
                backing="tiered",
                memory_budget="32K",
                tier_block_rows=16,
                tier_dir=str(tmp_path / "tier"),
            )
        )
        report = trainer.train(small_split.train).memory_report
        assert report["backing"] == "tiered"
        assert report["budget_bytes"] == 32 * 1024
        assert report == trainer.server.store.memory_report()
        assert report["tables"]["entity"]["hit_ratio"] >= 0.0
        trainer.server.store.close()

    def test_config_rejects_budget_without_tiering(self):
        with pytest.raises(ValueError, match="memory_budget requires"):
            tier_config(memory_budget="64M")


# ------------------------------------------------------------------ serving


class TestServingTiered:
    def test_with_backing_gather_identical(self, small_split, tmp_path):
        from repro.serving.store import EmbeddingStore

        trainer = HETKGTrainer(tier_config())
        trainer.train(small_split.train)
        base = EmbeddingStore.from_trainer(trainer)
        tiered = base.with_backing(
            "tiered",
            TierConfig(
                policy=TierPolicy(cold_codec="none"),
                directory=tmp_path / "serve",
            ),
        )
        ids = np.arange(base.num_entities, dtype=np.int64)
        assert np.array_equal(tiered.gather("entity", ids), base.gather("entity", ids))
        assert tiered.memory_report()["backing"] == "tiered"
        tiered.store.close()

    def test_serving_reads_and_answers_match_resident(self, small_split, tmp_path):
        """A Zipf stream served through a tiered store under a budget that
        makes passes fire: the answers are the resident store's byte for
        byte, and each table counts exactly the rows the queries read — a
        score query its head and tail, a prediction its anchor and
        candidates (nothing without candidates), each its relation once
        unless it reads nothing."""
        from repro.serving.batcher import QueryBatcher
        from repro.serving.frontend import ServingFrontend
        from repro.serving.queries import Query
        from repro.serving.store import EmbeddingStore
        from repro.serving.workload import WorkloadSpec, ZipfianWorkload

        trainer = HETKGTrainer(tier_config())
        trainer.train(small_split.train)
        base = EmbeddingStore.from_trainer(trainer)
        tiered = base.with_backing(
            "tiered",
            TierConfig(
                budget="3K",
                policy=TierPolicy(block_rows=8, pass_rows=256, cold_codec="none"),
                directory=tmp_path / "serve",
            ),
        )
        log = ZipfianWorkload.from_graph(
            small_split.train, WorkloadSpec(num_queries=400, seed=5)
        ).generate()
        last = log.queries[-1].arrival
        empty = [
            Query(qid=10_000 + i, kind=kind, head=3, relation=0, tail=4,
                  arrival=last + 1e-4 * (i + 1))
            for i, kind in enumerate(("tail", "head", "tail"))
        ]
        queries = [*log.queries, *empty]

        def serve(store):
            frontend = ServingFrontend(store, batcher=QueryBatcher(max_batch=8))
            frontend.run(queries)
            return frontend.results

        tables = tiered.store.tier.tables
        before = {kind: t.stats.accesses for kind, t in tables.items()}
        served, resident = serve(tiered), serve(base)
        assert [r.qid for r in served] == [r.qid for r in resident]
        for got, want in zip(served, resident):
            assert got.outcome == want.outcome == "admitted"
            assert np.asarray(got.answer).tobytes() == np.asarray(want.answer).tobytes()
        entity_rows = relation_rows = 0
        for q in queries:
            if q.kind == "score":
                entity_rows += 2
            elif len(q.candidates):
                entity_rows += 1 + len(q.candidates)
            else:
                continue
            relation_rows += 1
        assert tables["entity"].stats.accesses - before["entity"] == entity_rows
        assert tables["relation"].stats.accesses - before["relation"] == relation_rows
        assert tables["entity"].stats.passes > 0
        assert tables["entity"].stats.promoted_blocks > 0
        tiered.store.close()

    def test_a_dispatch_reads_each_table_at_most_once(self, small_split, tmp_path):
        """A dispatch answers its batch from one read per table, so a tier
        pass can only fall between two dispatches' reads, never between
        two queries of one batch."""
        from repro.serving.batcher import QueryBatcher
        from repro.serving.frontend import ServingFrontend
        from repro.serving.store import EmbeddingStore
        from repro.serving.workload import WorkloadSpec, ZipfianWorkload

        trainer = HETKGTrainer(tier_config())
        trainer.train(small_split.train)
        tiered = EmbeddingStore.from_trainer(trainer).with_backing(
            "tiered",
            TierConfig(
                budget="3K",
                policy=TierPolicy(block_rows=8, pass_rows=256, cold_codec="none"),
                directory=tmp_path / "serve",
            ),
        )
        reads = dict.fromkeys(tiered.store.tier.tables, 0)
        for kind, table in tiered.store.tier.tables.items():
            def counted(ids, read=table.read, kind=kind):
                reads[kind] += 1
                return read(ids)

            table.read = counted
        frontend = ServingFrontend(tiered, batcher=QueryBatcher(max_batch=8))
        per_dispatch = []
        process = frontend._process

        def dispatch(*args, **kwargs):
            before = dict(reads)
            process(*args, **kwargs)
            per_dispatch.append({k: reads[k] - before[k] for k in reads})

        frontend._process = dispatch
        log = ZipfianWorkload.from_graph(
            small_split.train, WorkloadSpec(num_queries=300, seed=5)
        ).generate()
        frontend.run(log.queries)
        assert frontend.batcher.mean_batch_size > 2
        assert per_dispatch
        assert all(n <= 1 for counts in per_dispatch for n in counts.values())
        assert sum(counts["entity"] for counts in per_dispatch) == len(per_dispatch)
        tiered.store.close()


# ---------------------------------------------------------------------- CLI


class TestCLITiered:
    def test_train_tiered_smoke(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "train", "--dataset", "fb15k", "--scale", "0.012",
                "--epochs", "1", "--machines", "2", "--eval-queries", "2",
                "--backing", "tiered", "--memory-budget", "32K",
                "--tier-block-rows", "16", "--tier-dir", str(tmp_path / "tier"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "memory: resident" in out
        assert "tier time:" in out

    def test_train_tiered_pbg_smoke(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "train", "--dataset", "fb15k", "--scale", "0.012",
                "--system", "pbg", "--epochs", "1", "--eval-queries", "2",
                "--backing", "tiered", "--memory-budget", "32K",
                "--tier-block-rows", "16", "--tier-dir", str(tmp_path / "tier"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "PBG" in out
        assert "memory: resident" in out
        assert "tier time:" in out

    def test_train_rejects_budget_without_tiering(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "train", "--dataset", "fb15k", "--scale", "0.012",
                "--memory-budget", "8M", "--epochs", "1",
            ]
        )
        assert rc == 2
        assert "requires --backing tiered" in capsys.readouterr().err
