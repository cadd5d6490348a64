"""Bench for the serving subsystem: latency SLOs under the hot-set cache.

Not a paper table — the serving tier is this repository's first
post-reproduction workload.  The bench regenerates the ``serving-cache``
sweep and asserts its headline shape: a log-profiled static hot set
raises the hit ratio, cuts remote traffic, and lowers tail latency
versus serving without a cache.
"""

from repro.experiments.serving_study import run_serving_cache
from repro.serving.metrics import ServingReport

#: Column indices of ServingReport.as_row(), by header name.
P50, P99, HIT, REMOTE_MB = (
    ServingReport.headers().index(name)
    for name in ("p50 (ms)", "p99 (ms)", "hit ratio", "remote MB")
)


def test_serving_cache_latency(benchmark, record_result):
    result = benchmark.pedantic(
        lambda: run_serving_cache(
            scale=0.05, epochs=1, num_queries=3000, fractions=(0.05, 0.2)
        ),
        rounds=1,
        iterations=1,
    )
    record_result(result)

    by_label = {row[0]: row for row in result.rows}
    baseline = by_label["no-cache"]
    small, large = by_label["static@5%"], by_label["static@20%"]

    # Hit ratio grows with the hot set and is zero without a cache.
    assert baseline[HIT] == 0.0
    assert 0.0 < small[HIT] < large[HIT] <= 1.0

    # The cache pays for itself: less remote traffic, lower tail latency.
    assert large[REMOTE_MB] < baseline[REMOTE_MB]
    assert large[P99] < baseline[P99]
    assert large[P50] <= baseline[P50]
