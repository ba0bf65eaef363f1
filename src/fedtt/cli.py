"""Command line entry point.

    fedtt train   --config run.cfg [--seed N] [--out DIR] [--workers N]
    fedtt report  --table costs.csv [--bytes-per-param N] [--reference NAME]
    fedtt inspect --checkpoint out/checkpoint.bin

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 I/O or
checkpoint error.  ``train`` writes config.txt, metrics.csv, and
checkpoint.bin into the output directory; runs with the same config and
seed produce byte-identical files regardless of --workers.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checkpoint import inspect_checkpoint, save_checkpoint
from .config import RunConfig, format_config, parse_config, with_overrides
from .errors import CheckpointError, ConfigError, NumericalError
from .fed import RoundMetrics, run_training
from .report import comm_report, format_report, load_cost_table

__all__ = ["main"]

CSV_HEADER = "round,clients,train_loss,eval_loss,eval_acc,uplink_kb,cumulative_kb"


def _metrics_csv(metrics: list[RoundMetrics]) -> str:
    lines = [CSV_HEADER]
    for m in metrics:
        lines.append(
            f"{m.round},{len(m.client_ids)},{m.train_loss!r},{m.eval_loss!r},"
            f"{m.eval_acc!r},{m.uplink_kb!r},{m.cumulative_kb!r}"
        )
    return "\n".join(lines) + "\n"


def _cmd_train(args) -> int:
    cfg = parse_config(args.config) if args.config else RunConfig()
    cfg = with_overrides(cfg, seed=args.seed, out=args.out, workers=args.workers)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    metrics, final = run_training(cfg)
    (outdir / "config.txt").write_text(format_config(cfg), encoding="utf-8")
    (outdir / "metrics.csv").write_text(_metrics_csv(metrics), encoding="utf-8")
    save_checkpoint(outdir / "checkpoint.bin", final)
    last = metrics[-1]
    print(
        f"trained {len(metrics)} rounds ({cfg.fed.algorithm}); "
        f"final eval_loss {last.eval_loss:.4f}, eval_acc {last.eval_acc:.4f}, "
        f"total uplink {last.cumulative_kb:.1f} KB"
    )
    print(f"wrote {outdir / 'metrics.csv'}")
    return 0


def _cmd_report(args) -> int:
    params, rounds = load_cost_table(args.table)
    try:
        rows = comm_report(params, rounds, args.bytes_per_param, args.reference)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    print(format_report(rows))
    return 0


def _cmd_inspect(args) -> int:
    info = inspect_checkpoint(args.checkpoint)
    print(f"version {info['version']}, {info['count']} tensors, "
          f"{info['total_params']} values, {info['bytes']} bytes, crc ok")
    for e in info["entries"]:
        shape = "x".join(str(d) for d in e["shape"]) or "scalar"
        print(f"  {e['name']}  shape {shape}  [{e['min']:.6g}, {e['max']:.6g}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fedtt", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run federated training and write metrics")
    t.add_argument("--config", help="config file (omit for defaults)")
    t.add_argument("--seed", type=int, help="override the run seed")
    t.add_argument("--out", help="override the output directory")
    t.add_argument("--workers", type=int, help="override worker thread count")
    t.set_defaults(fn=_cmd_train)

    r = sub.add_parser("report", help="communication cost table")
    r.add_argument("--table", required=True, help="csv of name,params,rounds")
    r.add_argument("--bytes-per-param", type=int, default=4)
    r.add_argument("--reference", default="RoLoRA")
    r.set_defaults(fn=_cmd_report)

    i = sub.add_parser("inspect", help="describe a checkpoint file")
    i.add_argument("--checkpoint", required=True)
    i.set_defaults(fn=_cmd_inspect)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
