"""Run configuration: flat ``section.key = value`` text files.

Every section is a ``RunConfig`` field built by its own dataclass, whose
fields are its keys; ``model`` is :class:`fedtt.nn.ModelSettings`,
re-exported here.  Unknown keys are hard errors so typos cannot silently
fall back to defaults.  ``format_config`` emits every key of the resolved
config and ``parse_config_text`` reads it back to an equal object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .data import PARTITION_MODES, PartitionSpec, proportion_counts
from .errors import ConfigError
from .fed import FedConfig
from .nn import ModelSettings
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
        chain = self.model.adapter_chain_length
        if self.fed.algorithm == "fedtt_plus" and chain < 3:
            raise ValueError(
                "fed.algorithm = fedtt_plus needs adapter chains of length >= 3; "
                f"model.bottleneck = {self.model.bottleneck} and model.d_model = "
                f"{self.model.d_model} give chains of length {chain}"
            )
        train_total = self.data.classes * self.data.per_class
        if self.data.partition == "proportions":
            if self.data.proportions is None:
                raise ValueError("data.partition = proportions requires data.proportions")
            try:
                PartitionSpec(self.data.partition, self.fed.num_clients, self.data.proportions)
            except ValueError as e:
                raise ValueError(f"data.proportions: {e}") from e
            # The train split is stratified: each class supplies data.per_class.
            counts = proportion_counts(train_total, self.data.proportions)
            for c, demand in enumerate(map(sum, zip(*counts))):
                if demand > self.data.per_class:
                    raise ValueError(
                        f"data.proportions: the clients want {demand} examples of "
                        f"class {c}, but data.per_class = {self.data.per_class}"
                    )
        if train_total < self.fed.num_clients:
            raise ValueError(
                f"{train_total} training sequences cannot cover {self.fed.num_clients} clients"
            )


# A section is a RunConfig field built by its own dataclass.
_SECTIONS = {
    f.name: f.default_factory for f in fields(RunConfig) if is_dataclass(f.default_factory)
}


def _schema() -> dict[str, tuple[str, str, str]]:
    """key -> (section attr, field name, type tag); "" = top level.

    A section's keys are its dataclass's fields in order.  Under postponed
    annotations a field's type is a string: the scalar names are tags,
    anything else is the proportions matrix.
    """

    def kind(f) -> str:
        return f.type if f.type in ("int", "float", "bool", "str") else "matrix"

    schema = {}
    for f in fields(RunConfig):
        if f.name in _SECTIONS:
            for sf in fields(_SECTIONS[f.name]):
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
    by_section: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    top: dict[str, object] = {}
    for key, val in values.items():
        section, fname, _ = _SCHEMA[key]
        by_section.get(section, top)[fname] = val
    try:
        sections = {name: cls(**by_section[name]) for name, cls in _SECTIONS.items()}
        return RunConfig(**sections, **top)
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
