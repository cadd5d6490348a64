"""HET-KG reproduction: communication-efficient distributed knowledge graph
embedding training via hotness-aware caches.

Quickstart
----------
>>> from repro import generate_dataset, split_triples, TrainingConfig, make_trainer
>>> graph = generate_dataset("fb15k", scale=0.02)
>>> split = split_triples(graph, seed=0)
>>> config = TrainingConfig(model="transe", epochs=2, cache_strategy="dps")
>>> trainer = make_trainer("hetkg-d", config)
>>> result = trainer.train(split.train, eval_graph=split.test)
>>> result.sim_time > 0
True

See :mod:`repro.experiments` for runners that regenerate every table and
figure in the paper's evaluation section.
"""

from repro.core.config import TrainingConfig
from repro.core.trainer import HETKGTrainer, TrainResult, make_trainer
from repro.core.baselines import DGLKETrainer, PBGTrainer
from repro.core.evaluation import evaluate_link_prediction, LinkPredictionResult
from repro.core.checkpoint import save_checkpoint, load_checkpoint
from repro.core.telemetry import Telemetry, IterationRecord
from repro.kg.graph import KnowledgeGraph
from repro.kg.datasets import (
    DatasetSpec,
    FB15K_SPEC,
    WN18_SPEC,
    FREEBASE86M_SPEC,
    generate_dataset,
    load_tsv,
    save_tsv,
)
from repro.kg.splits import Split, split_triples
from repro.models.base import get_model, KGEModel, MODEL_REGISTRY
from repro.cache.strategies import ConstantPartialStale, DynamicPartialStale
from repro.cache.sync import HotEmbeddingCache
from repro.serving import (
    EmbeddingStore,
    QueryBatcher,
    ServingCache,
    ServingFrontend,
    ServingReport,
    WorkloadSpec,
    ZipfianWorkload,
)
from repro.obs import Tracer, get_tracer, set_tracer

__version__ = "1.0.0"

__all__ = [
    "TrainingConfig",
    "HETKGTrainer",
    "DGLKETrainer",
    "PBGTrainer",
    "TrainResult",
    "make_trainer",
    "evaluate_link_prediction",
    "LinkPredictionResult",
    "save_checkpoint",
    "load_checkpoint",
    "Telemetry",
    "IterationRecord",
    "KnowledgeGraph",
    "DatasetSpec",
    "FB15K_SPEC",
    "WN18_SPEC",
    "FREEBASE86M_SPEC",
    "generate_dataset",
    "load_tsv",
    "save_tsv",
    "Split",
    "split_triples",
    "get_model",
    "KGEModel",
    "MODEL_REGISTRY",
    "ConstantPartialStale",
    "DynamicPartialStale",
    "HotEmbeddingCache",
    "EmbeddingStore",
    "QueryBatcher",
    "ServingCache",
    "ServingFrontend",
    "ServingReport",
    "WorkloadSpec",
    "ZipfianWorkload",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "__version__",
]
