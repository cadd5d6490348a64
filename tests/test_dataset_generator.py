"""The sorted-key generator == the tuple-set one it replaced.

``repro.kg.datasets.generate_dataset`` drops self-loops and repeated
triples from each round of draws with sorted keys (``repro.kg.graph``'s
``_encode``): first occurrences by ``np.unique``, triples kept in earlier
rounds by ``searchsorted``, the first ``want`` by draw position.  Its
predecessor, kept verbatim in
``tests/reference/dataset_generator_reference.py``, checked one tuple of
Python ints at a time against a ``set``.  Over the built-in specs and small
dense ones (whose structured triple space runs out, so rounds pass the
unstructured fallback), scales and seeds, the triples must be the same
bytes; once with int64 keys and once with the 24-byte keys a vocabulary
past every int64 key space gets.

Run with ``--hypothesis-seed=0`` for the CI draw.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import datasets
from repro.kg.datasets import SPECS, DatasetSpec
from tests.reference import dataset_generator_reference as reference

#: Few entities, many triples: most draws repeat a kept triple, and the
#: structured space is spent before the triple count is reached.
DENSE = (
    DatasetSpec("dense", num_entities=8, num_relations=2, num_triples=96),
    DatasetSpec(
        "dense-structured",
        num_entities=12,
        num_relations=3,
        num_triples=150,
        num_communities=3,
        structure_noise=0.0,
    ),
)


def _same_triples(spec, scale, seed) -> None:
    got = datasets.generate_dataset(spec, scale=scale, seed=seed)
    want = reference.generate_dataset(spec, scale=scale, seed=seed)
    assert got.triples.dtype == want.triples.dtype
    assert got.triples.tobytes() == want.triples.tobytes()
    assert (got.num_entities, got.num_relations) == (
        want.num_entities, want.num_relations,
    )


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(sorted(SPECS) + list(DENSE)),
    scale=st.sampled_from([0.0005, 0.002, 0.01, 0.03]),
    seed=st.integers(0, 2**32 - 1),
)
def test_generator_equals_the_tuple_set(spec, scale, seed):
    if isinstance(spec, DatasetSpec):
        scale = 1.0  # the dense specs are dense at their own size
    _same_triples(spec, scale, seed)


@settings(max_examples=20, deadline=None)
@given(
    spec=st.sampled_from(sorted(SPECS) + list(DENSE)),
    seed=st.integers(0, 2**32 - 1),
)
def test_wide_keys_give_the_same_triples(spec, seed):
    """The key encoding past every int64 key space, forced."""
    scale = 1.0 if isinstance(spec, DatasetSpec) else 0.002
    with mock.patch.object(datasets, "_key_strides", lambda *sizes: None):
        _same_triples(spec, scale, seed)


def test_the_bench_graphs_are_the_tuple_sets():
    """fb15k x 0.2 and wn18 x 1.0 at seed 11 — the graphs every benchmark
    workload trains on."""
    _same_triples("fb15k", 0.2, 11)
    _same_triples("wn18", 1.0, 11)
