"""The HET-KG training system and its baselines.

* :mod:`repro.core.config` — every hyperparameter in one dataclass.
* :mod:`repro.core.compute` — model-agnostic batch gradient computation.
* :mod:`repro.core.worker` — one machine's training loop (with or without
  the hot-embedding cache).
* :mod:`repro.core.ledger` — what a run reports: ``Worker.stats()``
  snapshot → per-call delta → one ``RunLedger.summary`` for every result type.
* :mod:`repro.core.trainer` — HET-KG (CPS/DPS) and the cluster assembly.
* :mod:`repro.core.baselines` — DGL-KE and PyTorch-BigGraph reimplementations.
* :mod:`repro.core.evaluation` — filtered link-prediction metrics.
* :mod:`repro.core.convergence` — loss/metric-vs-time tracking.
"""

from repro.core.config import TrainingConfig
from repro.core.trainer import HETKGTrainer, TrainResult, make_trainer
from repro.core.baselines import DGLKETrainer, PBGTrainer
from repro.core.evaluation import evaluate_link_prediction, LinkPredictionResult
from repro.core.checkpoint import save_checkpoint, load_checkpoint
from repro.core.convergence import TrainingHistory, HistoryPoint
from repro.core.telemetry import Telemetry, IterationRecord

__all__ = [
    "TrainingConfig",
    "HETKGTrainer",
    "TrainResult",
    "make_trainer",
    "DGLKETrainer",
    "PBGTrainer",
    "evaluate_link_prediction",
    "LinkPredictionResult",
    "save_checkpoint",
    "load_checkpoint",
    "TrainingHistory",
    "HistoryPoint",
    "Telemetry",
    "IterationRecord",
]
