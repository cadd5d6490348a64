"""TransR [Lin et al., AAAI 2015].

Each relation has its own space: entities are mapped by a relation-specific
projection matrix ``M_r`` before the translation:

    score = -|| M_r h + r_vec - M_r t ||_2

The relation row stores ``[r_vec, vec(M_r)]`` (width ``d + d*d``), making
relations far heavier than entities — the reason the paper calls TransR
expressive but costly.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel, register_model
from repro.utils.rng import make_rng

_EPS = 1e-12


@register_model("transr")
class TransR(KGEModel):
    """Relation-specific projection-matrix translational model."""

    @property
    def relation_dim(self) -> int:
        return self.dim + self.dim * self.dim

    def _split(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r_vec = r[:, : self.dim]
        mats = r[:, self.dim :].reshape(len(r), self.dim, self.dim)
        return r_vec, mats

    def init_relations(
        self, count: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Translation part is uniform; matrices start near the identity,
        as in the original paper (so TransR begins as TransE)."""
        rng = make_rng(rng)
        bound = 6.0 / np.sqrt(self.dim)
        r_vec = rng.uniform(-bound, bound, size=(count, self.dim))
        eye = np.eye(self.dim).ravel()
        noise = rng.normal(0.0, 0.01, size=(count, self.dim * self.dim))
        return np.concatenate([r_vec, eye[None, :] + noise], axis=1)

    def score(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        shared: dict | None = None,
    ) -> np.ndarray:
        r_vec, mats = self._split(r)
        u = np.einsum("bij,bj->bi", mats, h - t) + r_vec
        return -np.sqrt((u**2).sum(axis=1) + _EPS)

    def grad(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        upstream: np.ndarray,
        shared: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        r_vec, mats = self._split(r)
        diff = h - t
        u = np.einsum("bij,bj->bi", mats, diff) + r_vec
        dist = np.sqrt((u**2).sum(axis=1, keepdims=True) + _EPS)
        g = -(u / dist) * upstream[:, None]

        gh = np.einsum("bij,bi->bj", mats, g)  # M^T g
        gt = -gh
        g_rvec = g
        g_mat = np.einsum("bi,bj->bij", g, diff)  # g (h - t)^T
        gr = np.concatenate([g_rvec, g_mat.reshape(len(r), self.dim * self.dim)], axis=1)
        return gh, gr, gt
