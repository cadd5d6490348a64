"""Shared plumbing for the experiment runners.

Each paper experiment needs the same ingredients: a dataset at some scale,
a shared hyperparameter config, the four systems, and a way to render
results.  This module provides all of them so individual runners stay a
few dozen lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import TrainingConfig
from repro.core.trainer import TrainResult, make_trainer
from repro.kg.datasets import generate_dataset
from repro.kg.graph import KnowledgeGraph
from repro.kg.splits import Split, split_triples
from repro.utils.tables import format_table

#: Display names matching the paper's tables.
SYSTEM_LABELS = {
    "pbg": "PBG",
    "dglke": "DGL-KE",
    "hetkg-c": "HET-KG-C",
    "hetkg-d": "HET-KG-D",
    "hetkg-a": "HET-KG-A",
}

#: The systems of Tables III-V, in the paper's row order.
ALL_SYSTEMS = ("pbg", "dglke", "hetkg-c", "hetkg-d")


@dataclass
class ExperimentResult:
    """One regenerated table or figure.

    ``rows`` are the table rows (paper tables) and ``series`` holds named
    (x, y) curves (paper figures).  ``to_text`` renders both.
    """

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list]
    notes: str = ""
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    def to_text(self, precision: int = 3) -> str:
        parts = [
            format_table(
                self.headers,
                self.rows,
                title=f"[{self.experiment_id}] {self.title}",
                precision=precision,
            )
        ]
        for name, points in self.series.items():
            rendered = ", ".join(f"({x:.3g}, {y:.3g})" for x, y in points)
            parts.append(f"series {name}: {rendered}")
        if self.notes:
            parts.append(f"note: {self.notes}")
        return "\n".join(parts)


@dataclass
class DatasetBundle:
    """A generated dataset with its split; ``graph`` is every known triple."""

    name: str
    graph: KnowledgeGraph
    split: Split


_BUNDLE_CACHE: dict[tuple[str, float, int], DatasetBundle] = {}


def dataset_bundle(name: str, scale: float = 1.0, seed: int = 0) -> DatasetBundle:
    """Generate (and memoise) a dataset plus its 90/5/5 split."""
    key = (name, scale, seed)
    if key not in _BUNDLE_CACHE:
        graph = generate_dataset(name, scale=scale)
        split = split_triples(graph, seed=seed)
        _BUNDLE_CACHE[key] = DatasetBundle(name=name, graph=graph, split=split)
    return _BUNDLE_CACHE[key]


def base_config(**overrides) -> TrainingConfig:
    """The shared hyperparameter set of the evaluation section.

    Mirrors Table II at simulation scale: AdaGrad lr 0.1, chunked negative
    sampling, 4 machines, METIS partitioning, wire dimension 400.  Cache
    parameters default to the paper's best configuration (25% entities,
    P = 8).
    """
    defaults = dict(
        model="transe",
        dim=16,
        lr=0.1,
        batch_size=128,
        num_negatives=16,
        negative_chunk=16,
        epochs=6,
        num_machines=4,
        cache_capacity=1024,
        entity_ratio=0.25,
        sync_period=8,
        dps_window=16,
        seed=0,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def run_system(
    system: str,
    config: TrainingConfig,
    bundle: DatasetBundle,
    eval_max_queries: int = 150,
    eval_candidates: int | None = 500,
    eval_every: int | None = None,
) -> TrainResult:
    """Train one system on one dataset bundle and return its result."""
    trainer = make_trainer(system, config)
    return trainer.train(
        bundle.split.train,
        eval_graph=bundle.split.test,
        known=bundle.graph,
        eval_every=eval_every,
        eval_max_queries=eval_max_queries,
        eval_candidates=eval_candidates,
    )


def link_prediction_rows(
    systems: tuple[str, ...],
    config: TrainingConfig,
    bundle: DatasetBundle,
    model: str,
    eval_max_queries: int = 150,
    eval_candidates: int | None = 500,
) -> list[list]:
    """Rows of a Tables III-V style comparison for one model."""
    rows = []
    for system in systems:
        result = run_system(
            system,
            config.with_overrides(model=model),
            bundle,
            eval_max_queries=eval_max_queries,
            eval_candidates=eval_candidates,
        )
        rows.append(
            [
                SYSTEM_LABELS[system],
                model,
                result.final_metrics.get("mrr", 0.0),
                result.final_metrics.get("hits@1", 0.0),
                result.final_metrics.get("hits@10", 0.0),
                result.sim_time,
            ]
        )
    return rows
