"""Communication cost accounting for parameter-efficient methods.

Uplink per client per round is trainable-parameter-count * bytes / 1024,
total cost multiplies by the rounds each method needs to reach its target
quality, and ratios are taken against a reference method's total.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import ConfigError

__all__ = ["ReportRow", "comm_report", "format_report", "load_cost_table"]


@dataclass(frozen=True)
class ReportRow:
    method: str
    params: int
    rounds: int
    uplink_kb: float
    total_kb: float
    ratio: float  # total_kb / reference total_kb


def comm_report(
    param_counts: Mapping[str, int],
    rounds_to_target: Mapping[str, int],
    bytes_per_param: int = 4,
    reference: str = "RoLoRA",
) -> list[ReportRow]:
    """Cost rows in param_counts order, ratios against ``reference``."""
    if bytes_per_param < 1:
        raise ValueError("bytes_per_param must be positive")
    if set(param_counts) != set(rounds_to_target):
        raise ValueError(
            "param_counts and rounds_to_target name different methods: "
            f"{sorted(set(param_counts) ^ set(rounds_to_target))}"
        )
    if reference not in param_counts:
        raise ValueError(f"reference method {reference!r} not in table")
    for name, n in param_counts.items():
        if n <= 0:
            raise ValueError(f"{name}: parameter count must be positive, got {n}")
        if rounds_to_target[name] < 1:
            raise ValueError(f"{name}: rounds must be at least 1")

    def total(name: str) -> float:
        return param_counts[name] * bytes_per_param / 1024 * rounds_to_target[name]

    ref_total = total(reference)
    rows = []
    for name, n in param_counts.items():
        uplink = n * bytes_per_param / 1024
        rows.append(
            ReportRow(name, n, rounds_to_target[name], uplink, total(name),
                      total(name) / ref_total)
        )
    return rows


def format_report(rows: list[ReportRow]) -> str:
    header = ("method", "params", "rounds", "uplink_kb", "total_kb", "ratio")
    table = [header]
    for r in rows:
        table.append(
            (r.method, str(r.params), str(r.rounds),
             f"{r.uplink_kb:.3f}", f"{r.total_kb:.3f}", f"{r.ratio:.4f}")
        )
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def load_cost_table(path) -> tuple[dict[str, int], dict[str, int]]:
    """Parse ``name,params,rounds`` lines; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as e:
        raise ConfigError(f"cost table not found: {path}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"cost table is not UTF-8 text: {path}: {e}") from e
    params: dict[str, int] = {}
    rounds: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ConfigError(
                f"line {lineno}: expected 'name,params,rounds', got {raw!r}"
            )
        name = parts[0]
        if not name:
            raise ConfigError(f"line {lineno}: empty method name")
        if name in params:
            raise ConfigError(f"line {lineno}: duplicate method {name!r}")
        try:
            params[name] = int(parts[1])
            rounds[name] = int(parts[2])
        except ValueError as e:
            raise ConfigError(f"line {lineno}: params and rounds must be integers") from e
    if not params:
        raise ConfigError("cost table is empty")
    return params, rounds
