"""The one training call: what it turns down, and that it does so first.

``HETKGTrainer.train(backend="sim" | "mp")`` is the single entry point of
both executors.  Everything here is rejected before any set-up or worker
step, so no test in this file starts a process.
"""

from __future__ import annotations

import re

import pytest

from repro import cli
from repro.core.config import TrainingConfig
from repro.core.evaluation import evaluate_link_prediction
from repro.core.trainer import make_trainer
from repro.core.worker import Worker
from repro.faults import FaultPlan
from repro.mp.backend import TRACE_REASON, MPUnsupportedError
from repro.obs import Tracer, set_tracer
from repro.stream.events import EventStream
from repro.stream.ingest import OnlineTrainer
from tests.reference.evaluation_reference import triple_set


def config(**overrides) -> TrainingConfig:
    defaults = dict(
        model="transe", dim=8, epochs=2, batch_size=32, num_negatives=4,
        num_machines=2, cache_capacity=64, sync_period=4, dps_window=8, seed=0,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def set_up(trainer) -> bool:
    """Whether ``trainer`` has built anything yet."""
    return getattr(trainer, "server", None) is not None or (
        getattr(trainer, "entity_table", None) is not None
    )


@pytest.fixture
def no_steps(monkeypatch):
    """Fail loudly if any worker steps."""

    def step(self):
        raise AssertionError("a worker stepped before the arguments were checked")

    monkeypatch.setattr(Worker, "step", step)


# ------------------------------------------------------- evaluation budget


EVAL_CASES = {
    "eval_every=0": ("hetkg-d", {"eval_every": 0}, "eval_every"),
    "eval_every=-1": ("hetkg-d", {"eval_every": -1}, "eval_every"),
    "eval_max_queries=0": ("hetkg-d", {"eval_max_queries": 0}, "eval_max_queries"),
    "eval_max_queries=-3": ("hetkg-d", {"eval_max_queries": -3}, "eval_max_queries"),
    "eval_candidates=0": ("hetkg-d", {"eval_candidates": 0}, "eval_candidates"),
    "eval_candidates=-2": ("hetkg-d", {"eval_candidates": -2}, "eval_candidates"),
    "mp eval_every=0": ("hetkg-d", {"eval_every": 0, "backend": "mp"}, "eval_every"),
    "dglke eval_candidates=0": ("dglke", {"eval_candidates": 0}, "eval_candidates"),
    "pbg eval_every=0": ("pbg", {"eval_every": 0}, "eval_every"),
    "pbg eval_candidates=-2": ("pbg", {"eval_candidates": -2}, "eval_candidates"),
    "online eval_every=0": ("online", {"eval_every": 0}, "eval_every"),
    "online eval_candidates=0": ("online", {"eval_candidates": 0}, "num_candidates"),
}


@pytest.mark.parametrize("case", sorted(EVAL_CASES))
def test_eval_budget_rejected_before_any_step(case, small_split, no_steps):
    """An evaluation budget ``epoch_point`` cannot honour raises
    ``ValueError`` before set-up, not after the last epoch (or, for
    ``eval_candidates=0``, never: it ranked against no negatives and
    reported ``mrr=1.0``)."""
    system, kwargs, name = EVAL_CASES[case]
    if system == "online":
        trainer = make_trainer("hetkg-a", config())
        with pytest.raises(ValueError, match=name):
            OnlineTrainer(trainer, EventStream(updates=[]), **kwargs).train(
                small_split.train
            )
    else:
        trainer = make_trainer(system, config())
        with pytest.raises(ValueError, match=name):
            trainer.train(small_split.train, eval_graph=small_split.test, **kwargs)
    assert not set_up(trainer)


@pytest.mark.parametrize("budget", [{"max_queries": 0}, {"num_candidates": 0}])
def test_link_prediction_rejects_an_empty_budget(budget, small_split):
    trainer = make_trainer("hetkg-d", config())
    trainer.setup(small_split.train)
    with pytest.raises(ValueError, match=next(iter(budget))):
        evaluate_link_prediction(
            trainer.model,
            trainer.server.store.table("entity"),
            trainer.server.store.table("relation"),
            small_split.test,
            **budget,
        )


# ------------------------------------------------------------ known triples


@pytest.mark.parametrize(
    "system, backend",
    [("hetkg-d", "sim"), ("hetkg-d", "mp"), ("dglke", "sim"), ("pbg", "sim")],
    ids=["sim", "mp", "dglke", "pbg"],
)
def test_a_set_of_known_triples_rejected_before_any_step(
    system, backend, small_split, small_graph, no_steps
):
    """The old API passed a set of triples third, where ``known`` now goes:
    ``TypeError`` naming ``known`` before set-up, not an ``AttributeError``
    at the first evaluation after every epoch has trained."""
    trainer = make_trainer(system, config())
    with pytest.raises(TypeError, match="known"):
        trainer.train(
            small_split.train, small_split.test, triple_set(small_graph), backend=backend
        )
    assert not set_up(trainer)


def test_link_prediction_rejects_a_set_of_known_triples(small_split, small_graph):
    trainer = make_trainer("hetkg-d", config())
    trainer.setup(small_split.train)
    with pytest.raises(TypeError, match="known"):
        evaluate_link_prediction(
            trainer.model,
            trainer.server.store.table("entity"),
            trainer.server.store.table("relation"),
            small_split.test,
            triple_set(small_graph),
        )


def test_unknown_backend_rejected(small_split):
    trainer = make_trainer("hetkg-d", config())
    with pytest.raises(ValueError, match="gpu"):
        trainer.train(small_split.train, backend="gpu")
    assert not set_up(trainer)


# ------------------------------------------------------------ RULES parity

#: (flag, context) of each ``train`` row of ``cli.RULES`` blocked under a
#: backend -> the Python call the same invocation makes: (system, config
#: overrides, train keyword arguments).
CALLS = {
    ("--trace", "mp"): ("hetkg-d", {}, {"backend": "mp", "tracer": Tracer()}),
    ("--faults", "mp"): ("hetkg-d", {}, {"backend": "mp", "faults": FaultPlan()}),
    ("--checkpoint-every", "mp"): ("hetkg-d", {}, {"backend": "mp", "checkpoint_every": 4}),
    ("--backing tiered", "mp"): (
        "hetkg-d", {"backing": "tiered", "memory_budget": "1M"}, {"backend": "mp"}
    ),
    ("--system pbg", "mp"): ("pbg", {}, {"backend": "mp"}),
    ("--mp-schedule", "sim"): ("hetkg-d", {}, {"backend": "sim", "schedule": "sync"}),
    ("--mp-staleness", "sim"): ("dglke", {}, {"staleness_bound": 2}),
    ("--mp-start", "sim"): ("hetkg-c", {}, {"start_method": "fork"}),
}

ROWS = [
    (rule, context)
    for rule in cli.RULES
    if "train" in rule.commands
    for context in rule.blocked_in
    if context in ("mp", "sim")
]


class TestRulesParity:
    """The Python API turns down what ``cli.RULES`` turns down, with the
    row's reason, and leaves the trainer as it found it."""

    def test_every_backend_row_has_a_call(self):
        assert {(rule.flag, context) for rule, context in ROWS} == set(CALLS)

    @pytest.mark.parametrize(
        "rule, context", ROWS, ids=[f"{r.flag} x {c}" for r, c in ROWS]
    )
    def test_call_raises_the_rows_reason(self, rule, context, small_split, no_steps):
        system, overrides, kwargs = CALLS[(rule.flag, context)]
        trainer = make_trainer(system, config(**overrides))
        reason = re.escape(rule.reason)
        error = MPUnsupportedError if context == "mp" else ValueError
        with pytest.raises(error, match=reason):
            trainer.train(small_split.train, **kwargs)
        assert not set_up(trainer)  # rejected before any set-up
        # A trainer that already holds workers keeps the very same ones.
        trainer.setup(small_split.train)
        workers = list(getattr(trainer, "workers", []))
        before = [w.stats() for w in workers]
        try:
            with pytest.raises(error, match=reason):
                trainer.train(small_split.train, **kwargs)
            after = list(getattr(trainer, "workers", []))
            assert all(got is w for got, w in zip(after, workers))
            assert len(after) == len(workers)
            assert [w.stats() for w in after] == before
        finally:
            if getattr(trainer, "server", None) is not None:
                trainer.server.store.close()  # tier scratch files

    def test_process_wide_tracer_rejected(self, small_split):
        trainer = make_trainer("hetkg-d", config())
        set_tracer(Tracer())
        try:
            with pytest.raises(MPUnsupportedError, match=re.escape(TRACE_REASON)):
                trainer.train(small_split.train, backend="mp")
        finally:
            set_tracer(None)
        assert not set_up(trainer)
