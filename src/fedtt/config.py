"""Run configuration: flat ``section.key = value`` text files.

Unknown keys are hard errors so typos cannot silently fall back to
defaults.  ``format_config`` emits every key of the resolved config and
``parse_config_text`` reads it back to an equal object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .data import PARTITION_MODES, PartitionSpec
from .errors import ConfigError
from .fed import FedConfig
from .nn import ModelConfig
from .privacy import DPConfig

__all__ = [
    "ModelSettings",
    "DataSettings",
    "RunConfig",
    "parse_config",
    "parse_config_text",
    "format_config",
    "with_overrides",
]


# ModelConfig fields whose config key has a shorter name.
_MODEL_KEYS = {"num_blocks": "blocks", "num_heads": "heads"}


@dataclass(frozen=True)
class ModelSettings:
    vocab_size: int = 32
    seq_len: int = 16
    d_model: int = 64
    blocks: int = 2
    heads: int = 2
    mlp_hidden: int = 128
    bottleneck: int = 16
    tt_rank: int = 5
    head_mode: str = "tensorized"
    adapter_bias: bool = True
    activation: str = "relu"
    backbone_seed: int = 7
    pretrain_steps: int = 300
    pretrain_lr: float = 1e-3
    pretrain_batch: int = 32
    pretrain_per_class: int = 200

    def __post_init__(self) -> None:
        if self.pretrain_steps < 0:
            raise ValueError("model.pretrain_steps must be non-negative")
        if not 0 < self.pretrain_lr < math.inf:
            raise ValueError("model.pretrain_lr must be finite and positive")
        if self.pretrain_batch < 1 or self.pretrain_per_class < 1:
            raise ValueError("model.pretrain_batch and model.pretrain_per_class must be positive")
        if self.backbone_seed < 0:
            raise ValueError("model.backbone_seed must be non-negative")

    def to_model_config(self, num_classes: int) -> ModelConfig:
        values = {
            f.name: getattr(self, _MODEL_KEYS.get(f.name, f.name))
            for f in fields(ModelConfig)
            if f.name != "num_classes"
        }
        return ModelConfig(num_classes=num_classes, **values)


@dataclass(frozen=True)
class DataSettings:
    classes: int = 2
    per_class: int = 400
    eval_per_class: int = 100
    partition: str = "iid"
    proportions: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.classes < 2:
            raise ValueError("data.classes must be at least 2")
        if self.per_class < 1 or self.eval_per_class < 1:
            raise ValueError("data.per_class and data.eval_per_class must be positive")
        if self.partition not in PARTITION_MODES:
            raise ValueError(f"data.partition must be one of {PARTITION_MODES}")
        if self.proportions is not None and self.partition != "proportions":
            raise ValueError("data.proportions is only valid with data.partition = proportions")
        for i, row in enumerate(self.proportions or ()):
            if len(row) != self.classes:
                raise ValueError(
                    f"data.proportions row {i} has {len(row)} entries for "
                    f"{self.classes} classes"
                )


@dataclass(frozen=True)
class RunConfig:
    model: ModelSettings = field(default_factory=ModelSettings)
    fed: FedConfig = field(default_factory=FedConfig)
    data: DataSettings = field(default_factory=DataSettings)
    dp: DPConfig = field(default_factory=DPConfig)
    seed: int = 0
    out: str = "out"

    def __post_init__(self) -> None:
        """Cross-field checks that single sections cannot see."""
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        mc = self.model.to_model_config(self.data.classes)
        if self.fed.algorithm == "fedtt_plus" and mc.adapter_chain_length < 3:
            raise ValueError(
                "fed.algorithm = fedtt_plus needs adapter chains of length >= 3; "
                f"model.bottleneck = {self.model.bottleneck} and model.d_model = "
                f"{self.model.d_model} give chains of length {mc.adapter_chain_length}"
            )
        if self.data.partition == "proportions":
            if self.data.proportions is None:
                raise ValueError("data.partition = proportions requires data.proportions")
            try:
                PartitionSpec(self.data.partition, self.fed.num_clients, self.data.proportions)
            except ValueError as e:
                raise ValueError(f"data.proportions: {e}") from e
        train_total = self.data.classes * self.data.per_class
        if train_total < self.fed.num_clients:
            raise ValueError(
                f"{train_total} training sequences cannot cover {self.fed.num_clients} clients"
            )


def _schema() -> dict[str, tuple[str, str, str]]:
    """key -> (section attr, field name, type tag); "" = top level.

    A section is a RunConfig field built by its own dataclass; its keys are
    that dataclass's fields in order.  Under postponed annotations a field's
    type is a string: the scalar names are tags, anything else is the
    proportions matrix.
    """

    def kind(f) -> str:
        return f.type if f.type in ("int", "float", "bool", "str") else "matrix"

    schema = {}
    for f in fields(RunConfig):
        if is_dataclass(f.default_factory):
            for sf in fields(f.default_factory):
                schema[f"{f.name}.{sf.name}"] = (f.name, sf.name, kind(sf))
        else:
            schema[f.name] = ("", f.name, kind(f))
    return schema


_SCHEMA = _schema()


def _parse_value(key: str, kind: str, raw: str):
    try:
        if kind == "int":
            return int(raw, 10)
        if kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError("not a finite number")
            return value
        if kind == "bool":
            if raw == "true":
                return True
            if raw == "false":
                return False
            raise ValueError("expected true or false")
        if kind == "matrix":
            if raw == "":
                return None
            return tuple(
                tuple(float(cell) for cell in row.split(","))
                for row in raw.split(";")
            )
        return raw
    except ValueError as e:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind} ({e})") from e


def _format_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))
    if kind == "matrix":
        if value is None:
            return ""
        return ";".join(",".join(repr(float(c)) for c in row) for row in value)
    return str(value)


def parse_config_text(text: str) -> RunConfig:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, _SCHEMA[key][2], val)
    return _build(values)


def parse_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file is not UTF-8 text: {path}: {e}") from e
    return parse_config_text(text)


def _build(values: dict[str, object]) -> RunConfig:
    by_section: dict[str, dict[str, object]] = {"model": {}, "fed": {}, "data": {}, "dp": {}, "": {}}
    for key, val in values.items():
        section, fname, _ = _SCHEMA[key]
        by_section[section][fname] = val
    try:
        return RunConfig(
            model=ModelSettings(**by_section["model"]),
            fed=FedConfig(**by_section["fed"]),
            data=DataSettings(**by_section["data"]),
            dp=DPConfig(**by_section["dp"]),
            **by_section[""],
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def format_config(cfg: RunConfig) -> str:
    """Emit every key of the resolved config, one per line, in schema order."""
    lines = []
    for key, (section, fname, kind) in _SCHEMA.items():
        obj = cfg if section == "" else getattr(cfg, section)
        lines.append(f"{key} = {_format_value(kind, getattr(obj, fname))}")
    return "\n".join(lines) + "\n"


def with_overrides(cfg: RunConfig, seed=None, out=None, workers=None) -> RunConfig:
    """CLI-level overrides; None leaves the field untouched."""
    try:
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        if out is not None:
            cfg = replace(cfg, out=out)
        if workers is not None:
            cfg = replace(cfg, fed=replace(cfg.fed, workers=workers))
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return cfg
