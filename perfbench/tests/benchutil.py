"""Puts the benchmark's modules and the library sources on the path, and
builds a seconds-scale workload for the checks to run against.

Test modules import this first.  It is not a conftest.py: the repository's
own tests import helpers with ``from conftest import ...``, and a second
top-level conftest module would shadow theirs.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for p in (BENCH, BENCH.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from fedtt.config import DataSettings, ModelSettings, RunConfig  # noqa: E402
from fedtt.fed import FedConfig, FederatedRunner  # noqa: E402
from fedtt.privacy import DPConfig  # noqa: E402


def tiny_config(seed: int = 0, algorithm: str = "fedtt_plus", dp: bool = False,
                workers: int = 1) -> RunConfig:
    # bottleneck 24 over d_model 32 plans (6, 4, 8, 4): 4-core adapter chains.
    return RunConfig(
        model=ModelSettings(vocab_size=16, seq_len=8, d_model=32, blocks=1, heads=2,
                            mlp_hidden=32, bottleneck=24, tt_rank=3,
                            pretrain_steps=20, pretrain_per_class=30, pretrain_batch=16),
        fed=FedConfig(num_clients=3, local_updates=2, lr=3e-3, batch_size=8,
                      algorithm=algorithm, workers=workers),
        data=DataSettings(classes=2, per_class=24, eval_per_class=16),
        dp=DPConfig(enabled=dp, clip=0.5, sigma=0.5 if dp else 0.0),
        seed=seed,
    )


def tiny_runner(**kw) -> FederatedRunner:
    return FederatedRunner(tiny_config(**kw))
