"""Base class and registry for KGE score functions.

A :class:`KGEModel` is stateless: it maps batches of embedding *rows* to
scalar plausibility scores and, for training, to analytic gradients with
respect to those rows.  Embedding storage lives in the parameter server
(:mod:`repro.ps`) — the model only defines the geometry.

Score convention: **higher score = more plausible triple**, for every model
(distances are negated).  This keeps losses and evaluation model-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.utils.rng import make_rng


class KGEModel(ABC):
    """Scoring function ``f_r(h, t)`` with analytic gradients.

    Subclasses define ``entity_dim`` and ``relation_dim`` — the row widths
    of entity and relation embeddings (which differ for models like TransR,
    where a relation carries a projection matrix).

    Parameters
    ----------
    dim:
        The model's base embedding dimension ``d``.
    """

    #: Registry name, set by :func:`register_model`.
    name: str = "base"

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim

    # -------------------------------------------------------------- geometry

    @property
    def entity_dim(self) -> int:
        """Width of one entity embedding row."""
        return self.dim

    @property
    def relation_dim(self) -> int:
        """Width of one relation embedding row."""
        return self.dim

    # --------------------------------------------------------------- scoring

    @abstractmethod
    def score(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        shared: dict | None = None,
    ) -> np.ndarray:
        """Plausibility score for each row of the batch.

        ``h``/``t`` have shape ``(batch, entity_dim)`` and ``r`` has shape
        ``(batch, relation_dim)``; returns shape ``(batch,)``.  ``batch``
        may be zero.

        ``shared``, when given, is an empty dict the caller owns: the model
        may leave intermediates of this call in it (``h + r - t``, say) for
        a later :meth:`grad` on the *same* ``h``, ``r``, ``t`` to reuse.
        Which intermediates is the model's business, but every value is an
        array whose first axis is the batch row, so a caller that goes on
        with rows ``keep`` only hands ``grad`` ``{k: v[keep]}``; the model
        object itself keeps no per-call state.
        """

    @abstractmethod
    def grad(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        upstream: np.ndarray,
        shared: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gradients of ``sum(upstream * score)`` w.r.t. ``h``, ``r``, ``t``.

        ``upstream`` has shape ``(batch,)`` — the loss gradient flowing into
        each score.  Returns gradients with the same shapes as the inputs;
        zero rows in, ``(0, entity_dim)``, ``(0, relation_dim)``,
        ``(0, entity_dim)`` out (a batch whose every negative the hinge
        switched off reaches ``grad`` like that).

        ``shared`` is the dict a :meth:`score` call on the same ``h``,
        ``r``, ``t`` filled; without it (or with an empty one) everything
        is recomputed, to the same bits.  An operand
        :meth:`score_negatives` returned as ``None`` reaches ``grad`` as
        ``None``, with the ``shared`` that call filled.

        The returned arrays are **read-only for the caller**: they may
        share memory with each other (TransE's ``gh`` *is* its ``gr``) and
        with the arrays in ``shared``.  Copy before writing into one.
        """

    def score_negatives(
        self,
        h: np.ndarray,
        r: np.ndarray,
        t: np.ndarray,
        entity_rows: np.ndarray,
        relation_rows: np.ndarray,
        heads: np.ndarray,
        relations: np.ndarray,
        tails: np.ndarray,
        corrupt_head: np.ndarray,
        shared: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        """Scores of a batch's ``b * n`` negatives, read from the tables.

        Negative ``k = i * n + j`` is the triple of rows
        ``entity_rows[heads[k]]``, ``relation_rows[relations[k]]``,
        ``entity_rows[tails[k]]``: the ``j``-th corruption of positive
        ``i``, row-major, ``b = len(corrupt_head)``.  Row ``i``'s ``n``
        negatives keep its relation and its uncorrupted side — the rows
        ``h[i]``, ``r[i]``, ``t[i]`` of the positives, already read — and
        differ in the head when ``corrupt_head[i]``, in the tail otherwise.

        Returns the ``(b * n,)`` scores and the three ``(b * n, ·)``
        operand arrays :meth:`grad` is to be called with, ``h``, ``r``,
        ``t``, and fills ``shared`` as :meth:`score` does.  The base
        gathers the three operand arrays and calls :meth:`score`.  An
        override returns the bits of that call, in the scores and in
        ``shared`` alike, and may return ``None`` for an operand its
        ``grad`` never reads when given that ``shared`` — TransE, which
        reads each chunk's ``n`` shared negative rows once, not once per
        row of the chunk, does so for all three.
        """
        neg_h = np.take(entity_rows, heads, axis=0)
        neg_t = np.take(entity_rows, tails, axis=0)
        neg_r = np.take(relation_rows, relations, axis=0)
        return self.score(neg_h, neg_r, neg_t, shared), neg_h, neg_r, neg_t

    # ---------------------------------------------------------------- params

    def init_entities(
        self, count: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Initial entity embedding matrix ``(count, entity_dim)``.

        The default is the uniform Xavier-style init of the TransE paper:
        ``U(-6/sqrt(d), 6/sqrt(d))``.
        """
        rng = make_rng(rng)
        bound = 6.0 / np.sqrt(self.dim)
        return rng.uniform(-bound, bound, size=(count, self.entity_dim))

    def init_relations(
        self, count: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Initial relation embedding matrix ``(count, relation_dim)``."""
        rng = make_rng(rng)
        bound = 6.0 / np.sqrt(self.dim)
        return rng.uniform(-bound, bound, size=(count, self.relation_dim))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


#: name -> model class, filled by :func:`register_model`.
MODEL_REGISTRY: dict[str, type[KGEModel]] = {}


def register_model(name: str):
    """Class decorator adding a model to :data:`MODEL_REGISTRY`."""

    def decorator(cls: type[KGEModel]) -> type[KGEModel]:
        if name in MODEL_REGISTRY:
            raise ValueError(f"model {name!r} is already registered")
        cls.name = name
        MODEL_REGISTRY[name] = cls
        return cls

    return decorator


def get_model(name: str, dim: int, **kwargs) -> KGEModel:
    """Instantiate a registered model by name (e.g. ``"transe"``)."""
    try:
        cls = MODEL_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}"
        ) from None
    return cls(dim, **kwargs)


def check_batch_shapes(
    model: KGEModel, h: np.ndarray, r: np.ndarray, t: np.ndarray
) -> None:
    """Validate that a batch matches the model's row widths."""
    if h.ndim != 2 or r.ndim != 2 or t.ndim != 2:
        raise ValueError("h, r, t must be 2-D (batch, dim) arrays")
    if not (len(h) == len(r) == len(t)):
        raise ValueError(
            f"batch sizes differ: h={len(h)}, r={len(r)}, t={len(t)}"
        )
    if h.shape[1] != model.entity_dim or t.shape[1] != model.entity_dim:
        raise ValueError(
            f"entity rows must have width {model.entity_dim}, "
            f"got h={h.shape[1]}, t={t.shape[1]}"
        )
    if r.shape[1] != model.relation_dim:
        raise ValueError(
            f"relation rows must have width {model.relation_dim}, got {r.shape[1]}"
        )
