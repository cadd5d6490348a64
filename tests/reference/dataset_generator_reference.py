"""Reference oracle: the dataset generator that deduplicated by tuple set.

``generate_dataset`` of ``repro/kg/datasets.py`` as it stood before it
deduplicated each round of drawn triples with sorted keys: every candidate
triple became a tuple of Python ints, checked against and added to a
``set`` one by one, and each community's members were found by its own
``community_of == c`` scan.  Moved verbatim (the spec table and Zipf
weights are the live module's, which the rewrite did not touch).
``tests/test_dataset_generator.py`` holds the live generator to it: the
same triples, byte for byte.  Not imported by ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.kg.datasets import SPECS, DatasetSpec, _zipf_weights
from repro.kg.graph import KnowledgeGraph
from repro.utils.rng import make_rng


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
    members = [np.nonzero(community_of == c)[0] for c in range(n_comm)]
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

    seen: set[tuple[int, int, int]] = {
        (int(h), int(r), int(t)) for h, r, t in rows[0]
    }
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
        fresh = []
        for hi, ri, ti in zip(h, r, t):
            if hi == ti:
                continue
            key = (int(hi), int(ri), int(ti))
            if key in seen:
                continue
            seen.add(key)
            fresh.append(key)
            if len(fresh) == want:
                break
        if fresh:
            rows.append(np.asarray(fresh, dtype=np.int64))
            produced += len(fresh)

    triples = np.concatenate(rows)[:n_tri]
    graph = KnowledgeGraph(triples, num_entities=n_ent, num_relations=n_rel)
    return graph
