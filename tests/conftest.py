"""Shared fixtures: one small model family so the pretrained backbone cache
is hit across test modules instead of re-trained per test."""

import numpy as np
import pytest

from fedtt.config import DataSettings, ModelSettings, RunConfig
from fedtt.fed import FedConfig

# Training runs that take minutes each; everything else runs in seconds.
SLOW_TESTS = {
    "test_criterion_07_heterogeneity_behavior",
    "test_criterion_08_rank_ablation_direction",
}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name in SLOW_TESTS:
            item.add_marker(pytest.mark.slow)


TINY_MODEL = dict(
    vocab_size=16,
    seq_len=12,
    d_model=32,
    blocks=1,
    heads=2,
    mlp_hidden=48,
    bottleneck=8,
    tt_rank=3,
    pretrain_steps=40,
    pretrain_per_class=50,
    pretrain_batch=16,
)

TINY_FED = dict(num_clients=3, rounds=2, local_updates=1, lr=3e-3, batch_size=8)
TINY_DATA = dict(classes=2, per_class=30, eval_per_class=10)


def tiny_run_config(**overrides) -> RunConfig:
    """A seconds-scale RunConfig; overrides are routed to their section by
    dataclass field name, anything else (seed, out) stays top level."""
    model = dict(TINY_MODEL)
    fed = dict(TINY_FED)
    data = dict(TINY_DATA)
    top = {}
    for key, val in overrides.items():
        if key in ModelSettings.__dataclass_fields__:
            model[key] = val
        elif key in FedConfig.__dataclass_fields__:
            fed[key] = val
        elif key in DataSettings.__dataclass_fields__:
            data[key] = val
        else:
            top[key] = val
    return RunConfig(
        model=ModelSettings(**model),
        fed=FedConfig(**fed),
        data=DataSettings(**data),
        **top,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
