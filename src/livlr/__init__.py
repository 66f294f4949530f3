"""Graph-based video question answering with a hand-rolled autodiff core.

The package trains a multi-level video/language model end to end on
synthetic desk-scale tasks: graph encoders over detected objects and
parsed sentences, a diversity-aware integration module that fuses the
four representation streams, and open-ended / multi-choice answer heads.
Everything runs on the CPU via numpy; gradients come from the local
reverse-mode tape in livlr.tensor.
"""
from .config import ModelConfig, PRESETS, desk_config, full_config, tiny_config
from .data import (
    SIGNAL_SOURCES,
    Sample,
    SyntheticDataset,
    SyntheticTaskSpec,
    gen_synthetic,
    load_dataset,
    save_dataset,
)
from .checkpoint import apply_checkpoint, load_checkpoint, load_model_from, save_checkpoint
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    DataError,
    DegenerateRowError,
    GraphIntegrityError,
    LivlrError,
    NumericError,
    ShapeError,
)
from .gradcheck import GradCheckReport, check_gradients, grad_check
from .model import Model
from .optim import ParamStore, adamw_step
from .tensor import Tensor, as_tensor, backward, constant, no_grad, recording
from .train import TrainResult, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "ConfigError",
    "ContractError",
    "DataError",
    "DegenerateRowError",
    "GradCheckReport",
    "GraphIntegrityError",
    "LivlrError",
    "Model",
    "ModelConfig",
    "NumericError",
    "PRESETS",
    "ParamStore",
    "Sample",
    "ShapeError",
    "SIGNAL_SOURCES",
    "SyntheticDataset",
    "SyntheticTaskSpec",
    "Tensor",
    "TrainResult",
    "adamw_step",
    "apply_checkpoint",
    "as_tensor",
    "backward",
    "check_gradients",
    "constant",
    "desk_config",
    "evaluate",
    "full_config",
    "gen_synthetic",
    "grad_check",
    "load_checkpoint",
    "load_dataset",
    "load_model_from",
    "no_grad",
    "recording",
    "save_checkpoint",
    "save_dataset",
    "tiny_config",
    "train",
    "__version__",
]
