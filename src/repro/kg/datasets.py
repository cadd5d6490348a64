"""Dataset generators and file I/O.

The paper evaluates on FB15k, WN18, and Freebase-86m.  Those downloads are
not available in this offline environment, so this module generates
*synthetic stand-ins* that reproduce the property HET-KG's cache exploits:
**skewed access frequency** (Fig. 2 of the paper).  Entity degrees follow a
Zipf-like power law and the relation vocabulary is small relative to the
triple count, so a handful of relations and high-degree entities dominate
embedding accesses — exactly the regime in which hot-embedding caching pays
off.

Each generator is parameterised by a :class:`DatasetSpec` whose default
values mirror the published statistics (Table II of the paper), with
Freebase-86m scaled down by 1000x so it runs on one machine.  Pass ``scale``
to :func:`generate_dataset` to shrink/grow any spec proportionally.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from repro.kg.graph import KnowledgeGraph, _encode, _key_strides
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for a synthetic knowledge graph.

    Parameters mirror the real dataset's published statistics; the two
    exponents control the skew of the degree / relation-frequency
    distributions (1.0 is classic Zipf).

    The generator embeds *community structure* so link prediction is
    learnable: entities belong to latent communities and each relation maps
    a head community to a fixed tail community (with ``structure_noise``
    probability of a random tail instead).  A translational model can
    represent this exactly — entities cluster by community and relations
    translate between cluster centroids — so trained MRR rises well above
    chance, as on the real datasets.
    """

    name: str
    num_entities: int
    num_relations: int
    num_triples: int
    entity_exponent: float = 0.85
    relation_exponent: float = 1.05
    num_communities: int | None = None  # default: ~sqrt(num_entities)
    structure_noise: float = 0.05
    seed: int = 0

    def scaled(self, scale: float) -> "DatasetSpec":
        """Proportionally resize the spec — down (``scale < 1``) or up
        (``scale > 1``, e.g. the ``memory-tiering`` experiment's multi-
        million-entity graphs).  The relation vocabulary shrinks as
        ``sqrt(scale)`` when shrinking because real KGs largely keep their
        relation vocabulary as they grow — this also preserves the
        relation-heavy communication profile (e.g. PBG's dense-relation
        cost) at small scale; when *up*scaling it is left unchanged for
        the same reason."""
        check_positive("scale", scale)
        if not math.isfinite(scale):
            raise ValueError(f"scale must be finite, got {scale!r}")
        return replace(
            self,
            name=f"{self.name}-x{scale:g}",
            num_entities=max(8, int(self.num_entities * scale)),
            num_relations=max(2, int(self.num_relations * min(1.0, scale**0.5))),
            num_triples=max(16, int(self.num_triples * scale)),
        )

    @property
    def communities(self) -> int:
        if self.num_communities is not None:
            return self.num_communities
        return max(4, int(round(self.num_entities**0.5)))


#: FB15k: 14,951 entities / 1,345 relations / 592,213 triples (Table II).
FB15K_SPEC = DatasetSpec(
    name="fb15k",
    num_entities=14_951,
    num_relations=1_345,
    num_triples=592_213,
    entity_exponent=0.85,
    relation_exponent=1.05,
    seed=15,
)

#: WN18: 40,943 entities / 18 relations / 151,442 triples (Table II).
WN18_SPEC = DatasetSpec(
    name="wn18",
    num_entities=40_943,
    num_relations=18,
    num_triples=151_442,
    entity_exponent=0.75,
    relation_exponent=0.9,
    seed=18,
)

#: Freebase-86m scaled down 1000x: 86,054 entities / 14,824 relations in the
#: paper; we keep the relation vocabulary at a proportional 1,500 so the
#: relation-frequency skew is preserved at the reduced scale.
FREEBASE86M_SPEC = DatasetSpec(
    name="freebase86m-mini",
    num_entities=86_054,
    num_relations=1_500,
    num_triples=338_586,
    entity_exponent=0.95,
    relation_exponent=1.1,
    seed=86,
)

SPECS: dict[str, DatasetSpec] = {
    spec.name: spec for spec in (FB15K_SPEC, WN18_SPEC, FREEBASE86M_SPEC)
}


def _zipf_weights(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Normalised Zipf(exponent) weights over a random permutation of ids.

    The permutation decouples "hotness" from id order so nothing downstream
    can accidentally exploit id locality.
    """
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    weights /= weights.sum()
    perm = rng.permutation(n)
    out = np.empty(n, dtype=np.float64)
    out[perm] = weights
    return out


def generate_dataset(
    spec: DatasetSpec | str,
    scale: float = 1.0,
    seed: int | None = None,
) -> KnowledgeGraph:
    """Generate a synthetic knowledge graph from ``spec``.

    Heads and tails are drawn from a Zipf-weighted entity distribution and
    relations from a Zipf-weighted relation distribution; exact duplicate
    triples and self-loops are regenerated.  Every entity is additionally
    touched by at least one triple so vocabularies have no dead ids.

    Parameters
    ----------
    spec:
        A :class:`DatasetSpec` or the name of a built-in one
        (``"fb15k"``, ``"wn18"``, ``"freebase86m-mini"``).
    scale:
        Proportional resize applied before generation (``0.01`` produces a
        1%-size graph with the same skew shape).
    seed:
        Overrides ``spec.seed`` when given.
    """
    if isinstance(spec, str):
        try:
            spec = SPECS[spec]
        except KeyError:
            raise KeyError(
                f"unknown dataset {spec!r}; available: {sorted(SPECS)}"
            ) from None
    if scale != 1.0:
        spec = spec.scaled(scale)
    rng = make_rng(spec.seed if seed is None else seed)

    n_ent, n_rel, n_tri = spec.num_entities, spec.num_relations, spec.num_triples
    ent_weights = _zipf_weights(n_ent, spec.entity_exponent, rng)
    rel_weights = _zipf_weights(n_rel, spec.relation_exponent, rng)

    # Latent structure: entity -> community, relation x community -> target
    # community.  The community map is *geometric* — communities have latent
    # centroids and each relation is a latent translation, with the target
    # community being the nearest centroid to (centroid + translation).  A
    # translational embedding model can therefore represent the generative
    # process, which is what makes the graph learnable (see DatasetSpec).
    n_comm = min(spec.communities, n_ent)
    community_of = rng.integers(0, n_comm, size=n_ent)
    latent_dim = 16
    centroids = rng.normal(0.0, 1.0, size=(n_comm, latent_dim))
    rel_vecs = rng.normal(0.0, 1.0, size=(n_rel, latent_dim))
    rel_map = np.empty((n_rel, n_comm), dtype=np.int64)
    for r in range(n_rel):
        shifted = centroids + rel_vecs[r]  # (n_comm, latent_dim)
        d2 = ((shifted[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
        rel_map[r] = np.argmin(d2, axis=1)
    by_community = np.argsort(community_of, kind="stable")
    members = np.split(
        by_community, np.cumsum(np.bincount(community_of, minlength=n_comm))[:-1]
    )
    member_weights = []
    for c in range(n_comm):
        w = ent_weights[members[c]]
        member_weights.append(w / w.sum() if w.sum() > 0 else None)

    def sample_tails(heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        """Structured tail choice: community dictated by (relation, head
        community), with ``structure_noise`` chance of a random tail."""
        target_comm = rel_map[rels, community_of[heads]]
        noise = rng.random(len(heads)) < spec.structure_noise
        tails = np.empty(len(heads), dtype=np.int64)
        if noise.any():
            tails[noise] = rng.choice(n_ent, size=int(noise.sum()), p=ent_weights)
        structured = np.nonzero(~noise)[0]
        for c in np.unique(target_comm[structured]):
            rows_c = structured[target_comm[structured] == c]
            pool, w = members[c], member_weights[c]
            if len(pool) == 0:
                tails[rows_c] = rng.choice(n_ent, size=len(rows_c), p=ent_weights)
            else:
                tails[rows_c] = rng.choice(pool, size=len(rows_c), p=w)
        return tails

    # A spanning set of triples guarantees every entity id occurs at least
    # once; heads cover all entities, tails follow the structure.
    chain_h = rng.permutation(n_ent)
    chain_r = rng.choice(n_rel, size=n_ent, p=rel_weights)
    chain_t = sample_tails(chain_h, chain_r)
    loops = chain_h == chain_t
    chain_t[loops] = (chain_t[loops] + 1) % n_ent
    rows = [np.stack([chain_h, chain_r, chain_t], axis=1)]
    produced = n_ent

    # Every triple kept so far, as sorted keys (chain heads are distinct).
    strides = _key_strides(n_ent, n_rel)
    seen = np.sort(_encode(strides, chain_h, chain_r, chain_t))
    rounds = 0
    while produced < n_tri:
        rounds += 1
        want = n_tri - produced
        # Oversample to absorb duplicate / self-loop rejections.
        batch = int(want * 1.3) + 16
        h = rng.choice(n_ent, size=batch, p=ent_weights)
        r = rng.choice(n_rel, size=batch, p=rel_weights)
        if rounds <= 50:
            t = sample_tails(h, r)
        else:
            # Dense corner: the structured triple space is nearly
            # exhausted; fall back to unstructured tails to terminate.
            t = rng.choice(n_ent, size=batch, p=ent_weights)
        # The first ``want`` draws, in draw order, that are no self-loop and
        # no triple kept before or drawn earlier in this batch.
        drawn = np.flatnonzero(h != t)
        keys, first = np.unique(
            _encode(strides, h[drawn], r[drawn], t[drawn]), return_index=True
        )
        at = np.searchsorted(seen, keys)
        new = seen[np.minimum(at, len(seen) - 1)] != keys
        keys, first, at = keys[new], first[new], at[new]
        kept = np.sort(first)[:want]
        if len(kept):
            rows.append(np.stack([h, r, t], axis=1)[drawn[kept]])
            produced += len(kept)
            fresh = first <= kept[-1]
            seen = np.insert(seen, at[fresh], keys[fresh])

    triples = np.concatenate(rows)[:n_tri]
    graph = KnowledgeGraph(triples, num_entities=n_ent, num_relations=n_rel)
    return graph


# ---------------------------------------------------------------------- I/O


def save_tsv(graph: KnowledgeGraph, path: str | os.PathLike[str]) -> None:
    """Write triples as tab-separated ``head\\trelation\\ttail`` lines.

    Uses labels when the graph has them, integer ids otherwise.  The format
    matches the files distributed with DGL-KE.
    """
    with open(path, "w", encoding="utf-8") as f:
        for h, r, t in graph:
            if graph.entity_labels is not None and graph.relation_labels is not None:
                f.write(
                    f"{graph.entity_labels[h]}\t{graph.relation_labels[r]}\t"
                    f"{graph.entity_labels[t]}\n"
                )
            else:
                f.write(f"{h}\t{r}\t{t}\n")


def load_tsv(path: str | os.PathLike[str]) -> KnowledgeGraph:
    """Load a TSV triple file, assigning integer ids in first-seen order."""

    def read_rows():
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ValueError(
                        f"{path}:{lineno}: expected 3 tab-separated fields, "
                        f"got {len(parts)}"
                    )
                yield parts[0], parts[1], parts[2]

    return KnowledgeGraph.from_labeled_triples(read_rows())
