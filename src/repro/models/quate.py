"""QuatE [Zhang et al., NeurIPS 2019].

Quaternion embeddings: each dimension of an entity/relation is a
quaternion ``a + b i + c j + d k``.  The relation quaternion is normalised
to unit length (a pure rotation, like RotatE but in 4-D algebra) and
applied to the head by the Hamilton product; the score is the inner
product with the tail:

    score = < h (x) r/|r| , t >

Rows store the four components concatenated: ``[a | b | c | d]`` (width
``4d``).

Gradient identities used (with ``q* = (a, -b, -c, -d)`` the conjugate):

    d score / d t = h (x) r_hat
    d score / d h = t (x) r_hat*
    d score / d r_hat = h* (x) t
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel, register_model

_EPS = 1e-12


def _split(x: np.ndarray, dim: int) -> tuple[np.ndarray, ...]:
    return x[:, :dim], x[:, dim : 2 * dim], x[:, 2 * dim : 3 * dim], x[:, 3 * dim :]


def hamilton(p: tuple[np.ndarray, ...], q: tuple[np.ndarray, ...]):
    """Component-wise Hamilton product of two batched quaternion arrays."""
    pa, pb, pc, pd = p
    qa, qb, qc, qd = q
    return (
        pa * qa - pb * qb - pc * qc - pd * qd,
        pa * qb + pb * qa + pc * qd - pd * qc,
        pa * qc - pb * qd + pc * qa + pd * qb,
        pa * qd + pb * qc - pc * qb + pd * qa,
    )


def conjugate(q: tuple[np.ndarray, ...]):
    qa, qb, qc, qd = q
    return qa, -qb, -qc, -qd


def _dot(p, q) -> np.ndarray:
    return sum((pi * qi).sum(axis=1) for pi, qi in zip(p, q))


@register_model("quate")
class QuatE(KGEModel):
    """Quaternion rotation model."""

    @property
    def entity_dim(self) -> int:
        return 4 * self.dim

    @property
    def relation_dim(self) -> int:
        return 4 * self.dim

    def _normalize(self, r: np.ndarray):
        """Unit-normalise each quaternion component; returns the parts and
        the per-component norm for backprop."""
        ra, rb, rc, rd = _split(r, self.dim)
        norm = np.sqrt(ra**2 + rb**2 + rc**2 + rd**2 + _EPS)
        return (ra / norm, rb / norm, rc / norm, rd / norm), norm

    def score(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        shared: dict | None = None,
    ) -> np.ndarray:
        hq = _split(h, self.dim)
        tq = _split(t, self.dim)
        r_hat, _ = self._normalize(r)
        rotated = hamilton(hq, r_hat)
        return _dot(rotated, tq)

    def grad(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        upstream: np.ndarray,
        shared: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        hq = _split(h, self.dim)
        tq = _split(t, self.dim)
        r_hat, norm = self._normalize(r)
        up = upstream[:, None]

        # d score / d t = h (x) r_hat
        gt_parts = hamilton(hq, r_hat)
        gt = np.concatenate([g * up for g in gt_parts], axis=1)

        # d score / d h = t (x) r_hat*
        gh_parts = hamilton(tq, conjugate(r_hat))
        gh = np.concatenate([g * up for g in gh_parts], axis=1)

        # d score / d r_hat = h* (x) t, then back through the unit
        # normalisation: g_raw = (g - (r_hat . g) r_hat) / norm, where the
        # dot product is per quaternion component.
        gr_hat = hamilton(conjugate(hq), tq)
        dot = sum(rh * g for rh, g in zip(r_hat, gr_hat))
        gr_parts = [(g - dot * rh) / norm for g, rh in zip(gr_hat, r_hat)]
        gr = np.concatenate([g * up for g in gr_parts], axis=1)
        return gh, gr, gt
