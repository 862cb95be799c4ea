"""Inner-product embedding losses, a hand-differentiated MLP trainer, and a
retrieval evaluation harness, all exercised on synthetic multi-view data."""

from .data import Dataset, SyntheticSpec, generate, load_dataset, save_dataset, split
from .encoder import MlpParams, backward_batch, forward_batch, init_params
from .losses import (
    CenterlineBank,
    LabeledBatch,
    LinearClassifier,
    LossConfig,
    LossReport,
    loss_report,
)
from .retrieval import evaluate_run, geometry_report, pool_descriptors, rank
from .trainer import (
    DivergenceError,
    TrainConfig,
    TrainResult,
    evaluate_map,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
