"""Config file parsing, validation, and round-tripping."""

import math
from dataclasses import fields, replace

import pytest

from fedtt.config import (
    _SCHEMA,
    DataSettings,
    ModelSettings,
    RunConfig,
    format_config,
    parse_config,
    parse_config_text,
    with_overrides,
)
from fedtt.errors import ConfigError
from fedtt.fed import FedConfig
from fedtt.privacy import DPConfig


def test_empty_text_gives_defaults():
    cfg = parse_config_text("")
    assert cfg == RunConfig()
    assert cfg.fed.num_clients == 5
    assert cfg.fed.rounds == 100
    assert cfg.fed.local_updates == 1
    assert cfg.seed == 0


def test_format_parse_round_trip():
    cfg = parse_config_text(
        "fed.num_clients = 7\n"
        "fed.algorithm = fedtt_plus\n"
        "fed.lr = 0.0035\n"
        "model.bottleneck = 24\n"
        "data.partition = sorted_shards\n"
        "dp.enabled = true\n"
        "dp.sigma = 1.25\n"
        "seed = 99\n"
        "out = results/run1\n"
    )
    assert parse_config_text(format_config(cfg)) == cfg
    assert cfg.fed.lr == 0.0035
    assert cfg.dp.enabled is True
    assert cfg.out == "results/run1"


def test_round_trip_covers_every_key():
    # formatting the defaults and reparsing must also round-trip
    cfg = RunConfig()
    text = format_config(cfg)
    assert parse_config_text(text) == cfg
    # one line per schema key, all unique
    keys = [ln.split("=")[0].strip() for ln in text.strip().splitlines()]
    assert len(keys) == len(set(keys))
    assert "fed.clients_per_round" in keys


DEFAULT_CONFIG_TXT = (
    "model.vocab_size = 32\n"
    "model.seq_len = 16\n"
    "model.d_model = 64\n"
    "model.blocks = 2\n"
    "model.heads = 2\n"
    "model.mlp_hidden = 128\n"
    "model.bottleneck = 16\n"
    "model.tt_rank = 5\n"
    "model.head_mode = tensorized\n"
    "model.adapter_bias = true\n"
    "model.activation = relu\n"
    "model.backbone_seed = 7\n"
    "model.pretrain_steps = 300\n"
    "model.pretrain_lr = 0.001\n"
    "model.pretrain_batch = 32\n"
    "model.pretrain_per_class = 200\n"
    "fed.num_clients = 5\n"
    "fed.clients_per_round = 5\n"
    "fed.local_updates = 1\n"
    "fed.rounds = 100\n"
    "fed.algorithm = fedtt\n"
    "fed.lr = 0.001\n"
    "fed.batch_size = 32\n"
    "fed.weight_decay = 0.0\n"
    "fed.workers = 1\n"
    "fed.eval_batch = 64\n"
    "data.classes = 2\n"
    "data.per_class = 400\n"
    "data.eval_per_class = 100\n"
    "data.partition = iid\n"
    "data.proportions = \n"
    "dp.enabled = false\n"
    "dp.clip = 1.0\n"
    "dp.sigma = 0.0\n"
    "dp.epsilon = 0.0\n"
    "dp.delta = 1e-05\n"
    "dp.c0 = 1.0\n"
    "seed = 0\n"
    "out = out\n"
)


def test_format_config_of_defaults_is_pinned():
    # Key order and value formats are the config.txt file format.
    assert format_config(RunConfig()) == DEFAULT_CONFIG_TXT


def test_removed_reset_frozen_moments_key_is_unknown():
    # config.txt files written before the key was removed carry it.
    with pytest.raises(ConfigError, match="unknown config key 'fed.reset_frozen_moments'"):
        parse_config_text("fed.reset_frozen_moments = true\n")


def test_proportions_matrix_round_trip():
    text = (
        "fed.num_clients = 2\n"
        "data.partition = proportions\n"
        "data.proportions = 0.9,0.1;0.1,0.9\n"
    )
    cfg = parse_config_text(text)
    assert cfg.data.proportions == ((0.9, 0.1), (0.1, 0.9))
    assert parse_config_text(format_config(cfg)) == cfg


def test_comments_and_blank_lines_are_ignored():
    cfg = parse_config_text(
        "# a full-line comment\n"
        "\n"
        "seed = 3  # trailing comment\n"
    )
    assert cfg.seed == 3


def test_unknown_key_is_a_hard_error():
    with pytest.raises(ConfigError, match="line 2.*unknown"):
        parse_config_text("seed = 1\nfed.num_cleints = 5\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="fed.num_clients"):
        parse_config_text("fed.num_clients = five\n")
    with pytest.raises(ConfigError, match="dp.enabled"):
        parse_config_text("dp.enabled = yes\n")
    with pytest.raises(ConfigError, match="fed.lr"):
        parse_config_text("fed.lr = fast\n")
    with pytest.raises(ConfigError):
        parse_config_text("model.tt_rank = 2.5\n")


def test_clients_per_round_resolves_to_all():
    cfg = parse_config_text("fed.num_clients = 8\n")
    assert cfg.fed.clients_per_round == 8
    cfg = parse_config_text("fed.num_clients = 8\nfed.clients_per_round = 3\n")
    assert cfg.fed.clients_per_round == 3
    with pytest.raises(ConfigError, match="exceeds"):
        parse_config_text("fed.num_clients = 4\nfed.clients_per_round = 9\n")


def test_algorithm_validation():
    with pytest.raises(ConfigError, match="algorithm"):
        parse_config_text("fed.algorithm = fedsgd\n")


def test_fedtt_plus_needs_long_chains():
    # 4x4 adapter weights factor into two modes: too short to rotate
    text = (
        "model.d_model = 4\n"
        "model.heads = 1\n"
        "model.bottleneck = 4\n"
        "fed.algorithm = fedtt_plus\n"
    )
    with pytest.raises(ConfigError, match="length"):
        parse_config_text(text)
    # same model under plain fedtt is fine
    parse_config_text(text.replace("fed.algorithm = fedtt_plus\n", ""))


def test_proportions_cross_validation():
    with pytest.raises(ConfigError, match="requires data.proportions"):
        parse_config_text("data.partition = proportions\n")
    with pytest.raises(ConfigError, match="rows"):
        parse_config_text(
            "fed.num_clients = 3\n"
            "data.partition = proportions\n"
            "data.proportions = 0.5,0.5;0.5,0.5\n"
        )
    with pytest.raises(ConfigError, match="classes"):
        parse_config_text(
            "fed.num_clients = 2\n"
            "data.classes = 3\n"
            "data.partition = proportions\n"
            "data.proportions = 0.5,0.5;0.5,0.5\n"
        )
    with pytest.raises(ConfigError, match="sums to"):
        parse_config_text(
            "fed.num_clients = 2\n"
            "data.partition = proportions\n"
            "data.proportions = 0.5,0.6;0.5,0.5\n"
        )
    with pytest.raises(ConfigError, match="negative"):
        parse_config_text(
            "fed.num_clients = 2\n"
            "data.partition = proportions\n"
            "data.proportions = 1.5,-0.5;0.5,0.5\n"
        )
    with pytest.raises(ConfigError, match="sums to nan"):
        parse_config_text(
            "fed.num_clients = 2\n"
            "data.partition = proportions\n"
            "data.proportions = nan,1.0;0.5,0.5\n"
        )


@pytest.mark.parametrize(
    "key", [k for k, (_, _, kind) in _SCHEMA.items() if kind == "float"]
)
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_floats_are_rejected(key, raw):
    with pytest.raises(ConfigError, match=f"{key}: .*not a finite number"):
        parse_config_text(f"{key} = {raw}\n")


@pytest.mark.parametrize("section,name", [
    (cls, f.name) for cls in (FedConfig, DPConfig, ModelSettings)
    for f in fields(cls) if f.type == "float"
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_are_rejected_in_python(section, name, value):
    with pytest.raises(ValueError, match=name):
        section(**{name: value})


def test_fedtt_plus_on_two_core_chains_fails_before_pretraining(monkeypatch):
    def no_pretraining(*args):
        raise AssertionError("pretrained for a config that cannot run")

    monkeypatch.setattr("fedtt.fed.get_pretrained_backbone", no_pretraining)
    with pytest.raises(ValueError, match="fedtt_plus needs adapter chains of length >= 3"):
        RunConfig(model=ModelSettings(bottleneck=1), fed=FedConfig(algorithm="fedtt_plus"))


def test_unsatisfiable_proportions_fail_before_pretraining(monkeypatch):
    def no_pretraining(*args):
        raise AssertionError("pretrained for a config that cannot run")

    monkeypatch.setattr("fedtt.fed.get_pretrained_backbone", no_pretraining)
    # two clients of 400 each want class 0, which holds data.per_class = 400
    greedy = DataSettings(partition="proportions", proportions=((1.0, 0.0), (1.0, 0.0)))
    with pytest.raises(ValueError, match="data.proportions: .*800 examples of class 0"):
        RunConfig(fed=FedConfig(num_clients=2), data=greedy)
    with pytest.raises(ConfigError, match="data.proportions: .*class 0"):
        parse_config_text("fed.num_clients = 2\ndata.partition = proportions\n"
                          "data.proportions = 1,0;1,0\n")
    # demand equal to the supply is fine
    RunConfig(fed=FedConfig(num_clients=2),
              data=replace(greedy, proportions=((1.0, 0.0), (0.0, 1.0))))


def test_float_keys_include_every_rate_and_dp_setting():
    floats = {k for k, (_, _, kind) in _SCHEMA.items() if kind == "float"}
    assert floats >= {"fed.lr", "fed.weight_decay", "model.pretrain_lr",
                      "dp.clip", "dp.sigma", "dp.epsilon", "dp.c0"}


def test_every_proportion_row_must_match_the_class_count():
    head = "fed.num_clients = 3\ndata.classes = 3\ndata.partition = proportions\n"
    for rows, bad in (
        ("0,0,1;0.5,0.5;0.5,0.5", 1),
        ("0,0,1;0.25,0.25,0.25,0.25;1,0,0", 1),
        ("0,0,1;1,0,0;0.5,0.5", 2),
    ):
        with pytest.raises(ConfigError, match=f"row {bad} has .* for 3 classes"):
            parse_config_text(head + f"data.proportions = {rows}\n")
    with pytest.raises(ValueError, match="row 1 has 2 entries for 3 classes"):
        DataSettings(classes=3, partition="proportions",
                     proportions=((0.0, 0.0, 1.0), (0.5, 0.5), (0.5, 0.5)))


def test_dp_cross_validation():
    with pytest.raises(ConfigError):
        parse_config_text("dp.enabled = true\n")  # no sigma, no epsilon
    cfg = parse_config_text("dp.enabled = true\ndp.epsilon = 2.0\n")
    assert cfg.dp.epsilon == 2.0


def test_too_few_examples_for_clients():
    with pytest.raises(ConfigError, match="cannot cover"):
        parse_config_text(
            "fed.num_clients = 100\ndata.per_class = 10\ndata.classes = 2\n"
        )


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.cfg")


def test_parse_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 11\nfed.rounds = 2\n")
    cfg = parse_config(path)
    assert cfg.seed == 11 and cfg.fed.rounds == 2


def test_with_overrides():
    cfg = RunConfig()
    out = with_overrides(cfg, seed=5, out="elsewhere", workers=4)
    assert (out.seed, out.out, out.fed.workers) == (5, "elsewhere", 4)
    # None leaves fields alone
    same = with_overrides(cfg)
    assert same == cfg
    with pytest.raises(ConfigError):
        with_overrides(cfg, workers=0)


def test_section_validation_becomes_config_error():
    with pytest.raises(ConfigError):
        parse_config_text("model.pretrain_lr = -1.0\n")
    with pytest.raises(ConfigError):
        parse_config_text("data.classes = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("model.heads = 3\n")  # does not divide d_model=64


def test_settings_defaults_are_valid():
    ModelSettings()
    DataSettings()
    FedConfig()
