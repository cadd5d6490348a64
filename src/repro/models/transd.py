"""TransD [Ji et al., ACL 2015].

Replaces TransR's dense projection matrix with two projection *vectors*:
entity ``e`` carries ``e_p`` and relation ``r`` carries ``r_p``, giving the
dynamic projection ``M = r_p e_p^T + I``.  Applied to an entity this is

    e' = e + (e_p . e) r_p

so the model keeps TransR's per-relation spaces at TransE-like cost.  The
entity row stores ``[e, e_p]`` (width ``2d``) and the relation row stores
``[r, r_p]`` (width ``2d``).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel, register_model

_EPS = 1e-12


@register_model("transd")
class TransD(KGEModel):
    """Dynamic-projection translational model."""

    @property
    def entity_dim(self) -> int:
        return 2 * self.dim

    @property
    def relation_dim(self) -> int:
        return 2 * self.dim

    def _split(self, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return row[:, : self.dim], row[:, self.dim :]

    def score(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        shared: dict | None = None,
    ) -> np.ndarray:
        hv, hp = self._split(h)
        rv, rp = self._split(r)
        tv, tp = self._split(t)
        ch = (hp * hv).sum(axis=1, keepdims=True)
        ct = (tp * tv).sum(axis=1, keepdims=True)
        u = hv - tv + rv + (ch - ct) * rp
        return -np.sqrt((u**2).sum(axis=1) + _EPS)

    def grad(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        upstream: np.ndarray,
        shared: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        hv, hp = self._split(h)
        rv, rp = self._split(r)
        tv, tp = self._split(t)
        ch = (hp * hv).sum(axis=1, keepdims=True)
        ct = (tp * tv).sum(axis=1, keepdims=True)
        u = hv - tv + rv + (ch - ct) * rp
        dist = np.sqrt((u**2).sum(axis=1, keepdims=True) + _EPS)
        g = -(u / dist) * upstream[:, None]

        rp_g = (rp * g).sum(axis=1, keepdims=True)  # r_p . g
        ghv = g + rp_g * hp
        ghp = rp_g * hv
        gtv = -(g + rp_g * tp)
        gtp = -rp_g * tv
        grv = g
        grp = (ch - ct) * g
        gh = np.concatenate([ghv, ghp], axis=1)
        gt = np.concatenate([gtv, gtp], axis=1)
        gr = np.concatenate([grv, grp], axis=1)
        return gh, gr, gt
