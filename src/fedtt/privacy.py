"""Local differential privacy: per-sample clipping and Gaussian noising.

Noise is added inside each client's local steps.  The noise-multiplier
helper is advisory scaling only: it performs no accountant bookkeeping and
makes no formal privacy claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DPConfig", "clip", "dp_batch_gradient", "noise_multiplier"]


@dataclass(frozen=True)
class DPConfig:
    enabled: bool = False
    clip: float = 1.0
    sigma: float = 0.0
    epsilon: float = 0.0  # 0 means "not set"; used to derive sigma when sigma is 0
    delta: float = 1e-5
    c0: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.clip < math.inf:
            raise ValueError("clip norm must be finite and positive")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and non-negative")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and non-negative")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 < self.c0 < math.inf:
            raise ValueError("c0 must be finite and positive")
        if self.enabled and self.sigma == 0.0 and self.epsilon == 0.0:
            raise ValueError("enabled DP needs sigma or epsilon")


def clip(g: np.ndarray, clip_norm: float) -> np.ndarray:
    """Rescale g onto the L2 ball of radius clip_norm; shorter g is untouched."""
    if clip_norm <= 0:
        raise ValueError("clip norm must be positive")
    g = np.asarray(g, dtype=np.float64)
    norm = float(np.linalg.norm(g))
    if norm <= clip_norm:
        return g.copy()
    return g * (clip_norm / norm)


def dp_batch_gradient(
    per_sample_grads: np.ndarray,
    clip_norm: float,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Clip each row, sum, add N(0, clip^2 sigma^2 I), divide by batch size."""
    grads = np.atleast_2d(np.asarray(per_sample_grads, dtype=np.float64))
    if grads.shape[0] == 0:
        raise ValueError("empty batch")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    total = np.zeros(grads.shape[1])
    for g in grads:
        total += clip(g, clip_norm)
    if sigma > 0:
        total += rng.normal(0.0, clip_norm * sigma, size=total.shape)
    return total / grads.shape[0]


def noise_multiplier(
    epsilon: float, delta: float, q: float, steps: int, c0: float = 1.0
) -> float:
    """Advisory sigma = c0 * q * sqrt(steps * ln(1/delta)) / epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < q <= 1.0:
        raise ValueError("sampling rate q must lie in (0, 1]")
    if steps < 1:
        raise ValueError("steps must be positive")
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    return c0 * q * math.sqrt(steps * math.log(1.0 / delta)) / epsilon
