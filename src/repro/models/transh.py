"""TransH [Wang et al., AAAI 2014].

Each relation carries a hyperplane normal ``w`` and a translation ``d_r``
within that hyperplane.  Entities are projected onto the hyperplane before
the TransE-style translation:

    h_perp = h - (w.h) w,  t_perp = t - (w.t) w
    score  = -|| h_perp + d_r - t_perp ||_2

The relation row stores ``[w, d_r]`` concatenated (width ``2d``).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel, register_model

_EPS = 1e-12


@register_model("transh")
class TransH(KGEModel):
    """Hyperplane-projection translational model."""

    @property
    def relation_dim(self) -> int:
        return 2 * self.dim

    def _split(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return r[:, : self.dim], r[:, self.dim :]

    def _residual(
        self, h: np.ndarray, r: np.ndarray, t: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        w, d_r = self._split(r)
        # Normalising w keeps the projection well-defined without requiring
        # a separate constraint step.
        w = w / (np.linalg.norm(w, axis=1, keepdims=True) + _EPS)
        a = t - h
        c = (w * a).sum(axis=1, keepdims=True)  # w.(t - h)
        u = h + d_r - t + c * w  # h_perp + d_r - t_perp
        return u, w, a

    def score(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        shared: dict | None = None,
    ) -> np.ndarray:
        u, _, _ = self._residual(h, r, t)
        return -np.sqrt((u**2).sum(axis=1) + _EPS)

    def grad(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        upstream: np.ndarray,
        shared: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        w_raw = r[:, : self.dim]
        norm = np.linalg.norm(w_raw, axis=1, keepdims=True) + _EPS
        w = w_raw / norm
        a = t - h
        c = (w * a).sum(axis=1, keepdims=True)
        u = h + r[:, self.dim :] - t + c * w
        dist = np.sqrt((u**2).sum(axis=1, keepdims=True) + _EPS)
        g = -(u / dist) * upstream[:, None]  # d score / d u, scaled

        # u depends on h via (I - w w^T), on t via -(I - w w^T).
        wg = (w * g).sum(axis=1, keepdims=True)
        gh = g - wg * w
        gt = -gh
        gd_r = g
        # d u / d w_hat = a w^T + c I  =>  grad_w_hat = (w_hat . g) a + c g
        gw_hat = wg * a + c * g
        # Back through the normalisation w_hat = w_raw / ||w_raw||:
        # grad_w_raw = (gw_hat - (w_hat . gw_hat) w_hat) / ||w_raw||
        gw_raw = (gw_hat - (w * gw_hat).sum(axis=1, keepdims=True) * w) / norm
        gr = np.concatenate([gw_raw, gd_r], axis=1)
        return gh, gr, gt
