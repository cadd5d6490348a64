"""End-to-end integration tests: real training runs on structured synthetic
graphs, checking that the system *learns* and that the paper's headline
relationships hold."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import (
    TrainingConfig,
    generate_dataset,
    make_trainer,
    split_triples,
)


@pytest.fixture(scope="module")
def bundle():
    graph = generate_dataset("fb15k", scale=0.02, seed=11)
    split = split_triples(graph, seed=11)
    return graph, split


def config(**overrides):
    defaults = dict(
        model="transe",
        dim=16,
        epochs=8,
        batch_size=64,
        num_negatives=8,
        num_machines=2,
        cache_capacity=256,
        dps_window=8,
        sync_period=8,
        seed=2,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


class TestLearning:
    @pytest.mark.parametrize("system", ["dglke", "hetkg-c", "hetkg-d", "pbg"])
    def test_beats_chance_mrr(self, bundle, system):
        """Every system must learn: trained MRR well above the analytic
        chance level for full-candidate ranking."""
        graph, split = bundle
        trainer = make_trainer(system, config())
        result = trainer.train(
            split.train,
            eval_graph=split.test,
            filter_set=graph.triple_set(),
            eval_max_queries=100,
            eval_candidates=None,
        )
        n = graph.num_entities
        chance = float((1.0 / np.arange(1, n + 1)).sum() / n)
        assert result.final_metrics["mrr"] > 3 * chance

    def test_distmult_also_learns(self, bundle):
        graph, split = bundle
        trainer = make_trainer("hetkg-d", config(model="distmult"))
        result = trainer.train(
            split.train,
            eval_graph=split.test,
            eval_max_queries=100,
            eval_candidates=None,
        )
        n = graph.num_entities
        chance = float((1.0 / np.arange(1, n + 1)).sum() / n)
        assert result.final_metrics["mrr"] > 2 * chance

    def test_more_epochs_better_loss(self, bundle):
        graph, split = bundle
        result = make_trainer("hetkg-c", config(epochs=8)).train(split.train)
        losses = result.history.losses()
        assert losses[-1] < 0.8 * losses[0]


class TestPaperHeadlines:
    """Table III-V / Fig. 7 shapes at integration-test scale."""

    @pytest.fixture(scope="class")
    def results(self, bundle):
        graph, split = bundle
        out = {}
        for system in ("pbg", "dglke", "hetkg-c", "hetkg-d"):
            trainer = make_trainer(system, config(num_machines=4, epochs=4))
            out[system] = trainer.train(
                split.train,
                eval_graph=split.test,
                eval_max_queries=80,
                eval_candidates=None,
            )
        return out

    def test_speed_ordering(self, results):
        """HET-KG <= DGL-KE < PBG in simulated training time."""
        assert results["hetkg-c"].sim_time < results["dglke"].sim_time
        assert results["hetkg-d"].sim_time < results["dglke"].sim_time
        assert results["dglke"].sim_time < results["pbg"].sim_time

    def test_accuracy_comparable(self, results):
        """All systems land within a factor-2 MRR band (paper: comparable
        accuracy across systems)."""
        mrrs = [r.final_metrics["mrr"] for r in results.values()]
        assert max(mrrs) < 2.5 * min(mrrs)

    def test_communication_fraction_dominates_for_dglke(self, results):
        """Table I: with 1 Gbps networking, communication is the majority
        of DGL-KE's time."""
        assert results["dglke"].communication_fraction > 0.5

    def test_hetkg_reduces_comm_bytes(self, results):
        dglke_remote = results["dglke"].comm_totals.remote_bytes
        hetkg_remote = results["hetkg-d"].comm_totals.remote_bytes
        assert hetkg_remote < dglke_remote

    def test_cache_hit_ratios_meaningful(self, results):
        assert results["hetkg-c"].cache_hit_ratio > 0.2
        assert results["hetkg-d"].cache_hit_ratio > 0.2


class TestDeterminism:
    def test_full_run_bitwise_reproducible(self, bundle):
        graph, split = bundle
        a = make_trainer("hetkg-d", config(epochs=2)).train(split.train)
        b = make_trainer("hetkg-d", config(epochs=2)).train(split.train)
        assert a.history.losses() == b.history.losses()
        assert a.sim_time == b.sim_time
        assert a.cache_hit_ratio == b.cache_hit_ratio

    def test_seed_changes_run(self, bundle):
        graph, split = bundle
        a = make_trainer("hetkg-d", config(epochs=2, seed=1)).train(split.train)
        b = make_trainer("hetkg-d", config(epochs=2, seed=2)).train(split.train)
        assert a.history.losses() != b.history.losses()


class TestStalenessEffect:
    def test_very_stale_cache_does_not_diverge(self, bundle):
        """Even with P=128 the bounded synchronization must keep training
        stable (loss decreasing, finite metrics)."""
        graph, split = bundle
        result = make_trainer("hetkg-c", config(sync_period=128)).train(
            split.train,
            eval_graph=split.test,
            eval_max_queries=50,
            eval_candidates=None,
        )
        losses = result.history.losses()
        assert losses[-1] < losses[0]
        assert np.isfinite(result.final_metrics["mrr"])

    def test_tight_sync_costs_more_communication(self, bundle):
        graph, split = bundle
        tight = make_trainer("hetkg-c", config(sync_period=1, epochs=2)).train(split.train)
        loose = make_trainer("hetkg-c", config(sync_period=32, epochs=2)).train(split.train)
        assert tight.communication_time > loose.communication_time


_FOOTPRINT_SCRIPT = """
import json, runpy, sys

seen = {}
import repro
seen["import repro"] = "scipy" in sys.modules

from repro import TrainingConfig, generate_dataset, make_trainer, split_triples
from repro.serving.frontend import ServingFrontend
from repro.serving.queries import Query
from repro.serving.store import EmbeddingStore

train = split_triples(generate_dataset("fb15k", scale=0.02, seed=11), seed=11).train
trainer = make_trainer("hetkg-d", TrainingConfig(dim=8, num_machines=2, seed=2))
trainer.setup(train)
frontend = ServingFrontend(EmbeddingStore.from_trainer(trainer))
frontend.run([Query(qid=0, kind="score", head=0, relation=0, tail=1, arrival=0.0)])
seen["serving a query"] = "scipy" in sys.modules

sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit:
    pass
seen["python -m repro --help"] = "scipy" in sys.modules

trainer.workers[0].step()
seen["one Worker.step"] = "scipy" in sys.modules
print("\\n" + json.dumps(seen))
"""


class TestImportFootprint:
    def test_only_training_imports_scipy(self):
        """``scatter_add_rows`` imports ``scipy.sparse`` at first use (a
        module-top import is +13 MiB of peak RSS on every entry point):
        importing the package, serving and the CLI's help never load it, the
        first training step does."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {
            "import repro": False,
            "serving a query": False,
            "python -m repro --help": False,
            "one Worker.step": True,
        }
