"""HolE [Nickel et al., AAAI 2016].

Holographic embeddings compress RESCAL's pairwise interactions with
circular correlation:

    score = r . (h * t)        where (h * t)_k = sum_i h_i t_{(k+i) mod d}

Computed via FFT: ``corr(h, t) = ifft( conj(fft(h)) * fft(t) ).real``.

Gradient identities (derivable by reindexing the triple sum):

    d score / d r = corr(h, t)
    d score / d h = corr(r, t)
    d score / d t = conv(r, h)   (circular convolution)
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel, register_model


def circular_correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise circular correlation ``a * b`` via FFT."""
    return np.fft.ifft(np.conj(np.fft.fft(a, axis=1)) * np.fft.fft(b, axis=1), axis=1).real


def circular_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise circular convolution via FFT."""
    return np.fft.ifft(np.fft.fft(a, axis=1) * np.fft.fft(b, axis=1), axis=1).real


@register_model("hole")
class HolE(KGEModel):
    """Holographic embedding model."""

    def score(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        shared: dict | None = None,
    ) -> np.ndarray:
        return (r * circular_correlation(h, t)).sum(axis=1)

    def grad(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        upstream: np.ndarray,
        shared: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        up = upstream[:, None]
        gr = circular_correlation(h, t) * up
        gh = circular_correlation(r, t) * up
        gt = circular_convolution(r, h) * up
        return gh, gr, gt
