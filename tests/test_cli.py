"""End-to-end command line checks: file outputs, exit codes, determinism."""

import warnings

import numpy as np
import pytest

from fedtt.checkpoint import load_checkpoint
from fedtt.cli import CSV_HEADER, main
from fedtt.config import format_config, parse_config
from fedtt.fed import run_training

from conftest import tiny_run_config


def write_cfg(tmp_path, **overrides):
    cfg = tiny_run_config(**overrides)
    path = tmp_path / "run.cfg"
    path.write_text(format_config(cfg), encoding="utf-8")
    return path, cfg


def test_train_writes_all_artifacts(tmp_path, capsys):
    cfg_path, cfg = write_cfg(tmp_path, seed=21, rounds=3)
    out = tmp_path / "run1"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert (out / "config.txt").exists()
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoint.bin").exists()

    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3  # header + one row per round
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == str(cfg.fed.num_clients)

    stdout = capsys.readouterr().out
    assert "trained 3 rounds" in stdout
    assert "metrics.csv" in stdout


def test_train_csv_rows_match_api_run(tmp_path):
    cfg_path, cfg = write_cfg(tmp_path, seed=21, rounds=3)
    out = tmp_path / "run"
    main(["train", "--config", str(cfg_path), "--out", str(out)])
    metrics, final = run_training(cfg)
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    for row, m in zip(rows, metrics):
        cells = row.split(",")
        assert float(cells[2]) == m.train_loss  # repr round-trips exactly
        assert float(cells[4]) == m.eval_acc
    saved = load_checkpoint(out / "checkpoint.bin")
    assert set(saved) == set(final)
    for k in final:
        assert np.allclose(saved[k], final[k], atol=1e-7)  # f32 storage


def test_train_overrides_are_recorded(tmp_path):
    cfg_path, _ = write_cfg(tmp_path, seed=21)
    out = tmp_path / "o"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out),
               "--seed", "99", "--workers", "2"])
    assert rc == 0
    stored = parse_config(out / "config.txt")
    assert stored.seed == 99
    assert stored.fed.workers == 2
    assert stored.out == str(out)


def test_train_same_seed_same_bytes(tmp_path):
    cfg_path, _ = write_cfg(tmp_path, seed=8, rounds=2)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["train", "--config", str(cfg_path), "--out", str(a)])
    main(["train", "--config", str(cfg_path), "--out", str(b)])
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()


def test_unknown_config_key_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.d_model = 32\nfed.momentum = 0.9\n")
    rc = main(["train", "--config", str(bad)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_non_utf8_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes("# caf\xe9\nseed = 3\n".encode("latin-1"))
    assert main(["train", "--config", str(bad)]) == 1
    assert "config error: config file is not UTF-8 text" in capsys.readouterr().err


def test_negative_seed_exits_1(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path, seed=21)
    assert main(["train", "--config", str(cfg_path), "--seed", "-1"]) == 1
    assert "config error: seed must be non-negative" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed = -1\n")
    assert main(["train", "--config", str(bad)]) == 1
    assert "config error: seed must be non-negative" in capsys.readouterr().err


def test_divergent_run_exits_2(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path, seed=5, rounds=2, local_updates=3,
                            lr=1e9, weight_decay=1e9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "non-finite" in err


def test_unwritable_out_dir_exits_3(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path, rounds=1)
    blocker = tmp_path / "occupied"
    blocker.write_text("")
    rc = main(["train", "--config", str(cfg_path), "--out", str(blocker / "sub")])
    assert rc == 3
    assert "i/o error" in capsys.readouterr().err


def test_report_prints_ratio_column(tmp_path, capsys):
    table = tmp_path / "costs.csv"
    table.write_text(
        "# name,params,rounds\n"
        "RoLoRA,80000,2\n"
        "FedTT,60000,1\n"
    )
    rc = main(["report", "--table", str(table)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FedTT" in out and "RoLoRA" in out
    # 60000*4/1024 = 234.375 KB per round, ratio 234.375/625 = 0.375
    assert "234.375" in out
    assert "0.3750" in out


def test_report_missing_reference_exits_1(tmp_path, capsys):
    table = tmp_path / "costs.csv"
    table.write_text("FedTT,60000,1\n")
    rc = main(["report", "--table", str(table), "--reference", "LoRA"])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_report_malformed_table_exits_1(tmp_path, capsys):
    table = tmp_path / "costs.csv"
    table.write_text("FedTT,sixty-thousand,1\n")
    rc = main(["report", "--table", str(table)])
    assert rc == 1
    assert "line 1" in capsys.readouterr().err


def test_report_non_utf8_table_exits_1(tmp_path, capsys):
    table = tmp_path / "costs.csv"
    table.write_bytes("Caf\xe9,60000,1\n".encode("latin-1"))
    assert main(["report", "--table", str(table), "--reference", "Caf\xe9"]) == 1
    assert "config error: cost table is not UTF-8 text" in capsys.readouterr().err


def test_inspect_lists_entries(tmp_path, capsys):
    cfg_path, cfg = write_cfg(tmp_path, seed=3, rounds=1)
    out = tmp_path / "run"
    main(["train", "--config", str(cfg_path), "--out", str(out)])
    capsys.readouterr()
    rc = main(["inspect", "--checkpoint", str(out / "checkpoint.bin")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "crc ok" in text
    assert "head." in text
    assert "blocks.0.adapter.attn.down.f0" in text


def test_inspect_corrupt_file_exits_3(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path, seed=3, rounds=1)
    out = tmp_path / "run"
    main(["train", "--config", str(cfg_path), "--out", str(out)])
    path = out / "checkpoint.bin"
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0xFF
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    rc = main(["inspect", "--checkpoint", str(path)])
    assert rc == 3
    assert "checkpoint error" in capsys.readouterr().err


def test_inspect_missing_file_exits_3(tmp_path, capsys):
    rc = main(["inspect", "--checkpoint", str(tmp_path / "none.bin")])
    assert rc == 3
    assert "error" in capsys.readouterr().err
