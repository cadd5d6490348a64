"""Wire compression for embedding traffic — an extension beyond the paper.

The paper reduces communication by *avoiding* transfers (caching); an
orthogonal lever its future-work discussion points towards is *shrinking*
transfers.  This module provides lossy wire codecs that (a) cut the
metered bytes by a fixed factor and (b) inject the corresponding
quantization error into the payload, so accuracy impact is measured
honestly rather than assumed away.

Codecs:

* ``none``  — identity, 4 bytes/element (float32 wire format).
* ``fp16``  — half precision, 2 bytes/element; values are round-tripped
  through ``np.float16``.
* ``int8``  — per-row linear quantization to 8 bits plus a float32
  scale/offset per row, ~1 byte/element.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.ps.network import BYTES_PER_ELEMENT


#: Quantization levels of the 8-bit codec (256 values per row range).
_INT8_LEVELS = 255


def fp16_encode(rows: np.ndarray) -> np.ndarray:
    return np.asarray(rows, dtype=np.float64).astype(np.float16)


def fp16_decode(half: np.ndarray) -> np.ndarray:
    return half.astype(np.float64)


def int8_encode(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row linear quantization: ``(q uint8, row minimum, row span)``.

    A constant row has zero range; its span is stored as 1 so decoding
    never divides by zero (every ``q`` is 0 and the row decodes exactly).
    """
    rows = np.asarray(rows, dtype=np.float64)
    lo = rows.min(axis=1, keepdims=True)
    hi = rows.max(axis=1, keepdims=True)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    q = np.round((rows - lo) / span * _INT8_LEVELS).astype(np.uint8)
    return q, lo, span


def int8_decode(q: np.ndarray, lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    return lo + q.astype(np.float64) / _INT8_LEVELS * span


class Compressor(ABC):
    """A lossy wire codec for embedding/gradient rows."""

    #: Registry name.
    name: str = "base"

    @property
    @abstractmethod
    def bytes_per_element(self) -> float:
        """Wire cost per embedding element, in bytes."""

    @abstractmethod
    def roundtrip(self, rows: np.ndarray) -> np.ndarray:
        """Encode + decode ``rows``, returning the lossy reconstruction."""

    @property
    def byte_factor(self) -> float:
        """Wire bytes relative to uncompressed float32."""
        return self.bytes_per_element / BYTES_PER_ELEMENT


class NoCompression(Compressor):
    """Identity codec (the default float32 wire format)."""

    name = "none"

    @property
    def bytes_per_element(self) -> float:
        return float(BYTES_PER_ELEMENT)

    def roundtrip(self, rows: np.ndarray) -> np.ndarray:
        return rows


class Fp16Compression(Compressor):
    """Half-precision wire format: 2 bytes/element."""

    name = "fp16"

    @property
    def bytes_per_element(self) -> float:
        return 2.0

    def roundtrip(self, rows: np.ndarray) -> np.ndarray:
        return fp16_decode(fp16_encode(rows))


class Int8Compression(Compressor):
    """Per-row linear 8-bit quantization: ~1 byte/element.

    Each row is mapped to 256 levels between its min and max; the float32
    scale and offset per row are charged as 8 extra bytes.
    """

    name = "int8"

    @property
    def bytes_per_element(self) -> float:
        return 1.0

    def roundtrip(self, rows: np.ndarray) -> np.ndarray:
        if rows.size == 0:
            return rows
        return int8_decode(*int8_encode(rows))


_COMPRESSORS = {
    "none": NoCompression,
    "fp16": Fp16Compression,
    "int8": Int8Compression,
}


def get_compressor(name: str) -> Compressor:
    """Instantiate a codec by name (``"none"``, ``"fp16"``, ``"int8"``)."""
    try:
        return _COMPRESSORS[name]()
    except KeyError:
        raise KeyError(
            f"unknown compressor {name!r}; available: {sorted(_COMPRESSORS)}"
        ) from None
