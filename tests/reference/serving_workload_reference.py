"""Reference oracle: the Zipfian query generator of the tuple-candidate log.

This is ``ZipfianWorkload.generate`` (``repro/serving/workload.py``) as it
stood when each prediction query carried its candidates as a tuple of
Python ints, cut from one ``n × num_candidates`` draw over the whole
stream.  Kept verbatim as :meth:`ReferenceWorkload.generate`; the module
binds ``Query`` to :class:`TupleQuery`, the query record of that time
(validation aside), so the candidates it emits stay tuples.
``tests/test_serving_workload.py`` holds the live generator to it: every
query's kind, ids, arrival and candidates.  Not imported by ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving.queries import (
    HEAD_PREDICTION,
    SCORE,
    TAIL_PREDICTION,
    QueryLog,
)
from repro.serving.workload import ZipfianWorkload
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class TupleQuery:
    """A query whose candidates are a tuple of Python ints."""

    qid: int
    kind: str
    head: int | None
    relation: int
    tail: int | None
    arrival: float
    candidates: tuple[int, ...] = ()
    tenant: str = ""


Query = TupleQuery


class ReferenceWorkload(ZipfianWorkload):
    """A :class:`ZipfianWorkload` that draws every candidate in one call."""

    def generate(
        self, num_queries: int | None = None, start_time: float = 0.0
    ) -> QueryLog:
        """Emit a fresh deterministic stream of ``num_queries`` queries.

        Successive calls restart the stream (same seed, same queries) —
        generate once and slice for warmup/measure splits.
        """
        spec = self.spec
        n = spec.num_queries if num_queries is None else num_queries
        check_positive("num_queries", n)
        rng = make_rng(spec.seed)
        mix = np.asarray(spec.mix, dtype=np.float64)
        mix = mix / mix.sum()
        kinds = rng.choice(3, size=n, p=mix)
        arrivals = start_time + np.cumsum(
            rng.exponential(1.0 / spec.arrival_rate, size=n)
        )
        heads = self._sample_entities(rng, n)
        tails = self._sample_entities(rng, n)
        relations = self._sample_relations(rng, n)
        candidates = self._sample_entities(rng, n * spec.num_candidates).reshape(
            n, spec.num_candidates
        )

        queries = []
        kind_names = (SCORE, TAIL_PREDICTION, HEAD_PREDICTION)
        for i in range(n):
            kind = kind_names[kinds[i]]
            cand = () if kind == SCORE else tuple(candidates[i].tolist())
            queries.append(
                Query(
                    qid=i,
                    kind=kind,
                    head=int(heads[i]),
                    relation=int(relations[i]),
                    tail=int(tails[i]),
                    arrival=float(arrivals[i]),
                    candidates=cand,
                )
            )
        return QueryLog(queries)
