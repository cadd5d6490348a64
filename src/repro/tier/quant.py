"""Cold-tier block codecs.

The cold tier stores *encoded* blocks (the full-precision copy is
abandoned), so unlike the wire codecs in :mod:`repro.ps.compression` —
which only need ``roundtrip`` — these codecs keep the encoded form and
decode on demand.  The arithmetic *is* the wire codecs' (both call the
``encode``/``decode`` pairs in :mod:`repro.ps.compression`), so
``decode(encode(rows))`` is bit-equal to
``get_compressor(name).roundtrip(rows)``, which the tests pin.  That
makes the accuracy story composable: a cold read is exactly one wire
round-trip's worth of quantization error, no new error model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.ps.compression import fp16_decode, fp16_encode, int8_decode, int8_encode


@dataclass(frozen=True)
class EncodedBlock:
    """One quantized block: codec-specific payload + its resident size."""

    payload: tuple
    nbytes: int
    rows: int
    width: int


class BlockCodec(ABC):
    """Encode/decode whole residency blocks for the cold tier."""

    name: str = "base"

    @abstractmethod
    def encode(self, rows: np.ndarray) -> EncodedBlock: ...

    @abstractmethod
    def decode(self, block: EncodedBlock) -> np.ndarray:
        """Reconstruct float64 rows (a fresh array, safe to mutate)."""

    @abstractmethod
    def bytes_per_row(self, width: int) -> int:
        """Resident bytes per encoded row, for budget planning."""


class Fp16BlockCodec(BlockCodec):
    """Half-precision cold storage: 2 bytes/element."""

    name = "fp16"

    def encode(self, rows: np.ndarray) -> EncodedBlock:
        half = fp16_encode(rows)
        return EncodedBlock(
            payload=(half,),
            nbytes=int(half.nbytes),
            rows=rows.shape[0],
            width=rows.shape[1],
        )

    def decode(self, block: EncodedBlock) -> np.ndarray:
        (half,) = block.payload
        return fp16_decode(half)

    def bytes_per_row(self, width: int) -> int:
        return 2 * width


class Int8BlockCodec(BlockCodec):
    """Per-row linear 8-bit quantization: 1 byte/element + 16 bytes/row.

    ``Int8Compression.roundtrip``'s arithmetic, keeping ``(q, lo, span)``
    instead of decoding eagerly.
    """

    name = "int8"

    def encode(self, rows: np.ndarray) -> EncodedBlock:
        q, lo, span = int8_encode(rows)
        return EncodedBlock(
            payload=(q, lo, span),
            nbytes=int(q.nbytes + lo.nbytes + span.nbytes),
            rows=rows.shape[0],
            width=rows.shape[1],
        )

    def decode(self, block: EncodedBlock) -> np.ndarray:
        return int8_decode(*block.payload)

    def bytes_per_row(self, width: int) -> int:
        return width + 16


_CODECS = {
    "fp16": Fp16BlockCodec,
    "int8": Int8BlockCodec,
}


def get_block_codec(name: str) -> BlockCodec | None:
    """Codec by name; ``"none"`` returns ``None`` (cold tier disabled)."""
    if name == "none":
        return None
    try:
        return _CODECS[name]()
    except KeyError:
        raise KeyError(
            f"unknown cold codec {name!r}; available: ['none', 'fp16', 'int8']"
        ) from None
