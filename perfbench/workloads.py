"""The benchmark workloads.

Each workload is a ``RunConfig`` built from the run seed plus the time one
round took on the reference machine (2 vCPUs, numpy 2.4 with OpenBLAS,
Python 3.11).  A run does a fixed number of rounds derived from
``--seconds`` and that nominal round time, so every run for one seed does
exactly the same arithmetic, and the uplink and ``metrics.csv`` repeat bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from fedtt.config import DataSettings, ModelSettings, RunConfig
from fedtt.fed import FedConfig
from fedtt.privacy import DPConfig


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], RunConfig]
    nominal_round_s: float
    # Whether the final eval_loss must beat round 1's.  Only fedtt_default
    # learns reliably within a run; README.md gives the failing seeds.
    learns: bool = False

    def rounds(self, seconds: float) -> int:
        """Rounds per run: one warm-up round plus at least two timed ones."""
        return max(3, 1 + round(seconds / self.nominal_round_s))


def _fedtt_default(seed: int) -> RunConfig:
    # The README quick start: every default, one worker.
    return RunConfig(fed=FedConfig(workers=1), seed=seed)


def _fedtt_plus_skewed(seed: int) -> RunConfig:
    # Acceptance criterion 7's config; bottleneck 24 gives 4-core chains, so
    # the interior core rotates and the averaged cores differ across clients.
    return RunConfig(
        model=ModelSettings(bottleneck=24),
        fed=FedConfig(num_clients=10, local_updates=20, algorithm="fedtt_plus",
                      lr=3e-4, batch_size=16, workers=2),
        data=DataSettings(classes=4, per_class=200, eval_per_class=150,
                          partition="sorted_shards"),
        seed=seed,
    )


def _dp_cross_device(seed: int) -> RunConfig:
    # 1000 clients holding 16 sequences each; 10 sampled per round, one
    # DP step each, so a round is 160 single-sample backward passes.
    return RunConfig(
        fed=FedConfig(num_clients=1000, clients_per_round=10, batch_size=16,
                      workers=1),
        data=DataSettings(classes=2, per_class=8000),
        dp=DPConfig(enabled=True, clip=1.0, sigma=0.5),
        seed=seed,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fedtt_default", _fedtt_default, 0.165, learns=True),
        Workload("fedtt_plus_skewed", _fedtt_plus_skewed, 2.2),
        Workload("dp_cross_device", _dp_cross_device, 0.65),
    )
}
