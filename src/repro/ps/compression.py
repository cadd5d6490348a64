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


class Compressor(ABC):
    """A lossy codec for embedding/gradient rows.

    On the wire only :meth:`roundtrip` matters (the error a transfer
    injects); the tiered store's cold tier (:mod:`repro.tier.store`) keeps
    the :meth:`encode` payload resident and decodes on demand, so a cold
    read carries exactly one wire round-trip of quantization error.
    """

    #: Registry name.
    name: str = "base"

    #: True when :meth:`roundtrip` returns its argument bit for bit, so a
    #: transfer need not be split into local and remote rows at all.
    is_identity: bool = False

    @property
    @abstractmethod
    def bytes_per_element(self) -> float:
        """Wire cost per embedding element, in bytes."""

    @abstractmethod
    def encode(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """The encoded form of ``rows``, as a tuple of arrays."""

    @abstractmethod
    def decode(self, payload: tuple[np.ndarray, ...]) -> np.ndarray:
        """Reconstruct float64 rows from an :meth:`encode` payload."""

    def roundtrip(self, rows: np.ndarray) -> np.ndarray:
        """Encode + decode ``rows``, returning the lossy reconstruction."""
        if rows.size == 0:
            return rows
        return self.decode(self.encode(rows))

    def resident_bytes_per_row(self, width: int) -> int:
        """Bytes one encoded ``width``-element row occupies in memory."""
        return sum(a.nbytes for a in self.encode(np.zeros((1, width))))

    @property
    def byte_factor(self) -> float:
        """Wire bytes relative to uncompressed float32."""
        return self.bytes_per_element / BYTES_PER_ELEMENT


class NoCompression(Compressor):
    """Identity codec (the default float32 wire format)."""

    name = "none"
    is_identity = True

    @property
    def bytes_per_element(self) -> float:
        return float(BYTES_PER_ELEMENT)

    def encode(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        return (rows,)

    def decode(self, payload: tuple[np.ndarray, ...]) -> np.ndarray:
        return payload[0]


class Fp16Compression(Compressor):
    """Half-precision wire format: 2 bytes/element."""

    name = "fp16"

    @property
    def bytes_per_element(self) -> float:
        return 2.0

    def encode(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        return (np.asarray(rows, dtype=np.float64).astype(np.float16),)

    def decode(self, payload: tuple[np.ndarray, ...]) -> np.ndarray:
        return payload[0].astype(np.float64)


class Int8Compression(Compressor):
    """Per-row linear 8-bit quantization: ~1 byte/element.

    Each row is mapped to 256 levels between its min and max; the float32
    scale and offset per row are charged as 8 extra bytes.
    """

    name = "int8"

    @property
    def bytes_per_element(self) -> float:
        return 1.0

    def encode(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(q uint8, row minimum, row span)``.

        A constant row has zero range; its span is stored as 1 so decoding
        never divides by zero (every ``q`` is 0 and the row decodes exactly).
        """
        rows = np.asarray(rows, dtype=np.float64)
        lo = rows.min(axis=1, keepdims=True)
        hi = rows.max(axis=1, keepdims=True)
        span = np.where(hi - lo > 0, hi - lo, 1.0)
        q = np.round((rows - lo) / span * _INT8_LEVELS).astype(np.uint8)
        return q, lo, span

    def decode(self, payload: tuple[np.ndarray, ...]) -> np.ndarray:
        q, lo, span = payload
        return lo + q.astype(np.float64) / _INT8_LEVELS * span


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
