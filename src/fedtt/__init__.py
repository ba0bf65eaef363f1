"""Federated fine-tuning with tensor-train adapter payloads."""

from .checkpoint import inspect_checkpoint, load_checkpoint, save_checkpoint
from .config import (
    DataSettings,
    ModelSettings,
    RunConfig,
    format_config,
    parse_config,
    parse_config_text,
)
from .errors import CheckpointError, ConfigError, NumericalError
from .fed import (
    FedConfig,
    FederatedRunner,
    RoundMetrics,
    aggregate,
    run_training,
    trainable_names,
    unfrozen_cores,
)
from .nn import TensorizedAdapter, TensorizedLinear, ToyModel
from .privacy import DPConfig, noise_multiplier
from .report import comm_report, format_report
from .tt import (
    TensorShapePlan,
    TTWeight,
    full_rank_plan,
    mode_product,
    param_count,
    reconstruct,
    shape_plan_for,
    tt_forward,
    tt_matvec,
    tt_svd,
    tt_vjp,
)

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "ConfigError",
    "DataSettings",
    "DPConfig",
    "FedConfig",
    "FederatedRunner",
    "ModelSettings",
    "NumericalError",
    "RoundMetrics",
    "RunConfig",
    "TensorShapePlan",
    "TensorizedAdapter",
    "TensorizedLinear",
    "ToyModel",
    "TTWeight",
    "aggregate",
    "comm_report",
    "format_config",
    "format_report",
    "full_rank_plan",
    "inspect_checkpoint",
    "load_checkpoint",
    "mode_product",
    "noise_multiplier",
    "param_count",
    "parse_config",
    "parse_config_text",
    "reconstruct",
    "run_training",
    "save_checkpoint",
    "shape_plan_for",
    "trainable_names",
    "tt_forward",
    "tt_matvec",
    "tt_svd",
    "tt_vjp",
    "unfrozen_cores",
    "__version__",
]
