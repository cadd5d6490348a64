"""Tests for the wire-compression codecs."""

import numpy as np
import pytest

from repro.optim.sgd import SparseSGD
from repro.ps.compression import (
    Fp16Compression,
    Int8Compression,
    NoCompression,
    get_compressor,
)
from repro.ps.kvstore import ShardedKVStore
from repro.ps.server import ParameterServer


class TestCodecs:
    def test_registry(self):
        assert isinstance(get_compressor("none"), NoCompression)
        assert isinstance(get_compressor("fp16"), Fp16Compression)
        assert isinstance(get_compressor("int8"), Int8Compression)
        with pytest.raises(KeyError, match="unknown compressor"):
            get_compressor("zstd")

    def test_byte_factors(self):
        assert get_compressor("none").byte_factor == 1.0
        assert get_compressor("fp16").byte_factor == 0.5
        assert get_compressor("int8").byte_factor == 0.25

    def test_none_is_identity(self, rng):
        rows = rng.normal(size=(4, 8))
        assert get_compressor("none").roundtrip(rows) is rows

    def test_fp16_small_error(self, rng):
        rows = rng.normal(size=(4, 8))
        out = get_compressor("fp16").roundtrip(rows)
        assert not np.array_equal(out, rows)  # lossy
        np.testing.assert_allclose(out, rows, rtol=1e-2)

    def test_int8_bounded_error(self, rng):
        rows = rng.normal(size=(4, 8))
        out = get_compressor("int8").roundtrip(rows)
        span = rows.max(axis=1) - rows.min(axis=1)
        err = np.abs(out - rows).max(axis=1)
        assert np.all(err <= span / 255 + 1e-12)

    def test_int8_constant_row(self):
        rows = np.full((1, 4), 3.0)
        out = get_compressor("int8").roundtrip(rows)
        np.testing.assert_allclose(out, rows)

    def test_int8_empty(self):
        rows = np.zeros((0, 4))
        assert get_compressor("int8").roundtrip(rows).shape == (0, 4)


class TestServerIntegration:
    @pytest.fixture
    def store(self):
        entity = np.arange(20, dtype=np.float64).reshape(10, 2) * 0.1
        relation = np.ones((4, 2))
        owner = np.array([0] * 5 + [1] * 5)
        return ShardedKVStore(entity, relation, owner, num_machines=2)

    def test_remote_bytes_scaled(self, store):
        plain = ParameterServer(store, SparseSGD(1.0))
        compressed = ParameterServer(
            store, SparseSGD(1.0), compressor=get_compressor("fp16")
        )
        ids = np.array([7])  # remote for machine 0
        _, comm_plain = plain.pull("entity", ids, machine=0)
        _, comm_fp16 = compressed.pull("entity", ids, machine=0)
        assert comm_fp16.remote_bytes == comm_plain.remote_bytes // 2

    def test_local_rows_not_degraded(self, store):
        server = ParameterServer(
            store, SparseSGD(1.0), compressor=get_compressor("int8")
        )
        rows, comm = server.pull("entity", np.array([0, 1]), machine=0)
        np.testing.assert_array_equal(rows, store.table("entity")[[0, 1]])
        assert comm.remote_bytes == 0

    def test_remote_rows_roundtripped(self, store):
        server = ParameterServer(
            store, SparseSGD(1.0), compressor=get_compressor("fp16")
        )
        rows, _ = server.pull("entity", np.array([7]), machine=0)
        expected = store.table("entity")[7].astype(np.float16).astype(np.float64)
        np.testing.assert_array_equal(rows[0], expected)

    def test_push_gradients_compressed_remotely(self, store):
        server = ParameterServer(
            store, SparseSGD(1.0), compressor=get_compressor("fp16")
        )
        before = store.table("entity")[7].copy()
        grad = np.array([[0.12345678901234, 0.0]])
        server.push("entity", np.array([7]), grad, machine=0)
        applied = before - store.table("entity")[7]
        expected = grad[0].astype(np.float16).astype(np.float64)
        np.testing.assert_array_equal(applied, expected)

    @pytest.mark.parametrize("codec", ["none", "fp16", "int8"])
    def test_pull_and_push_are_the_split_written_out(self, store, codec, rng):
        """The wire contract, spelled the long way: local rows move raw,
        remote rows go through one ``roundtrip`` — which the identity codec
        skips (no split, no copy of the block) without changing a byte."""
        compressor = get_compressor(codec)
        server = ParameterServer(store, SparseSGD(1.0), compressor=compressor)
        ids = np.array([1, 7, 3, 9, 8])  # 7, 9, 8 are remote for machine 0
        remote = np.array([False, True, False, True, True])
        table = store.table("entity")
        table[:] = rng.normal(size=table.shape)

        expected = table[ids].copy()
        expected[remote] = compressor.roundtrip(expected[remote])
        rows, _ = server.pull("entity", ids, machine=0)
        assert rows.tobytes() == expected.tobytes()
        assert not np.shares_memory(rows, table)

        grads = rng.normal(size=(5, 2))
        sent = grads.copy()
        applied = grads.copy()
        applied[remote] = compressor.roundtrip(applied[remote])
        after = table.copy()
        after[ids] -= applied
        server.push("entity", ids, grads, machine=0)
        assert table.tobytes() == after.tobytes()
        assert grads.tobytes() == sent.tobytes(), "push wrote into the caller's block"

    def test_only_the_identity_codec_says_so(self, rng):
        rows = rng.normal(size=(6, 5))
        for codec in ("none", "fp16", "int8"):
            compressor = get_compressor(codec)
            same = compressor.roundtrip(rows).tobytes() == rows.tobytes()
            assert compressor.is_identity == same == (codec == "none")

    def test_end_to_end_training_with_compression(self, small_split):
        """Compressed training must still learn (loss decreases)."""
        from repro.core.config import TrainingConfig
        from repro.core.trainer import HETKGTrainer

        config = TrainingConfig(
            model="transe", dim=8, epochs=4, batch_size=16, num_negatives=4,
            num_machines=2, compression="fp16", seed=0,
        )
        result = HETKGTrainer(config).train(small_split.train)
        losses = result.history.losses()
        assert losses[-1] < losses[0]
