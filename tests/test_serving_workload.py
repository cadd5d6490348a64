"""The query log's candidates are rows of one array == the tuple-candidate log.

The oracle is ``tests/reference/serving_workload_reference.py``: the
generator that drew every candidate in one ``n × num_candidates`` call
and gave each prediction query a tuple of Python ints, verbatim.  The
live generator draws ``CANDIDATE_BLOCK`` queries' candidates per call and
keeps only the prediction queries' rows; over block-straddling lengths,
all-score and no-score mixes and every candidate-set size, every query
must be the reference's, candidates compared by value, each candidate
array read-only.  The footprint test pins what that buys as a count.
"""

from __future__ import annotations

import gc
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.workload import CANDIDATE_BLOCK, WorkloadSpec, ZipfianWorkload
from tests.reference.serving_workload_reference import ReferenceWorkload

MIXES = ((0.5, 0.3, 0.2), (1.0, 0.0, 0.0), (0.0, 0.6, 0.4), (0.2, 0.0, 0.8))


@settings(max_examples=50, deadline=None)
@given(
    num_queries=st.integers(1, 3 * CANDIDATE_BLOCK + 17),
    mix=st.sampled_from(MIXES),
    num_candidates=st.integers(1, 64),
    start_time=st.sampled_from((0.0, 0.25, 17.125)),
    zipf_exponent=st.sampled_from((0.0, 1.1)),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_generator_equals_the_single_draw(
    num_queries, mix, num_candidates, start_time, zipf_exponent, seed
):
    spec = WorkloadSpec(
        num_queries=num_queries, mix=mix, num_candidates=num_candidates,
        zipf_exponent=zipf_exponent, seed=seed,
    )
    new = ZipfianWorkload(50, 7, spec).generate(start_time=start_time)
    ref = ReferenceWorkload(50, 7, spec).generate(start_time=start_time)
    assert len(new) == len(ref) == num_queries
    for got, want in zip(new, ref):
        assert (got.qid, got.kind, got.head, got.relation, got.tail) == (
            want.qid, want.kind, want.head, want.relation, want.tail,
        )
        assert got.arrival.hex() == want.arrival.hex()
        assert got.candidates.tolist() == list(want.candidates)
        assert not got.candidates.flags.writeable


def test_a_logs_footprint_per_query():
    """20 000 queries with 64 candidates each hold at most 800 bytes per
    query once generated and peak at 1 000; a tuple of 64 Python ints per
    prediction query held 1 226 and peaked at 1 778."""
    n = 20_000
    workload = ZipfianWorkload(
        3000, 600, WorkloadSpec(num_queries=n, num_candidates=64, seed=3)
    )
    gc.collect()
    tracemalloc.start()
    try:
        log = workload.generate()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log) == n
    assert held / n <= 800, held / n
    assert peak / n <= 1000, peak / n
