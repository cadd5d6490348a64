"""RESCAL [Nickel et al., ICML 2011].

The original bilinear model: each relation is a full ``d x d`` interaction
matrix and the score is ``h^T M_r t``.  The relation row stores
``vec(M_r)`` (width ``d*d``).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel, register_model
from repro.utils.rng import make_rng


@register_model("rescal")
class RESCAL(KGEModel):
    """Full bilinear scoring ``h^T M_r t``."""

    @property
    def relation_dim(self) -> int:
        return self.dim * self.dim

    def init_relations(
        self, count: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Matrices start as noisy identities so initial scores behave like
        a dot product rather than noise."""
        rng = make_rng(rng)
        eye = np.eye(self.dim).ravel()
        noise = rng.normal(0.0, 0.05, size=(count, self.dim * self.dim))
        return eye[None, :] + noise

    def _mats(self, r: np.ndarray) -> np.ndarray:
        return r.reshape(len(r), self.dim, self.dim)

    def score(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        shared: dict | None = None,
    ) -> np.ndarray:
        mats = self._mats(r)
        return np.einsum("bi,bij,bj->b", h, mats, t)

    def grad(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        upstream: np.ndarray,
        shared: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        mats = self._mats(r)
        up = upstream[:, None]
        gh = np.einsum("bij,bj->bi", mats, t) * up  # M t
        gt = np.einsum("bij,bi->bj", mats, h) * up  # M^T h
        gm = np.einsum("bi,bj->bij", h, t) * upstream[:, None, None]  # h t^T
        return gh, gm.reshape(len(r), self.dim * self.dim), gt
