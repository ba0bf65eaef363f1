"""Benchmark entry point: one workload in one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports ``fedtt`` from ``src/`` and
writes its artifacts under ``perfbench/out/``.  With ``--trace 0`` it times
the untraced run, calibrated against the host's speed (see ``calib.py``),
and prints the end-to-end metrics; with ``--trace 1`` it
steps a traced and an untraced runner round by round and prints the
per-layer metrics.  Either way it checks the outputs (see ``checks.py``)
and ends with one JSON line: correct, attempted and failed client updates,
and the metrics with their units.  A client update that fails raises out of
its round, so a run with a failure exits 1 without a result.
"""

from __future__ import annotations

import os
import sys
import time

# One BLAS thread per worker thread: the matrices are tiny, and OpenBLAS's
# default of one thread per core per call would put 4 busy threads on 2 cores
# under the 2-worker workload.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def since_process_start() -> float:
    """Seconds since this process started, from its start time in /proc."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def metrics_csv(metrics) -> str:
    """The rounds in ``fedtt train``'s metrics.csv layout, floats as repr."""
    rows = ["round,clients,train_loss,eval_loss,eval_acc,uplink_kb,cumulative_kb"]
    rows += [
        f"{m.round},{len(m.client_ids)},{m.train_loss!r},{m.eval_loss!r},"
        f"{m.eval_acc!r},{m.uplink_kb!r},{m.cumulative_kb!r}"
        for m in metrics
    ]
    return "\n".join(rows) + "\n"


class Run:
    """One runner stepped round by round, checked after every round.

    With a calibration (``cal``, ``passes`` per block), a block of
    calibration passes runs after every round, and each timed round's time
    is divided by the mean pass time of the blocks on either side of it.
    """

    def __init__(self, runner, learns: bool, cal=None, passes: int = 0):
        self.runner = runner
        self.learns = learns
        self.metrics = []
        self.times: list[float] = []  # seconds per timed round
        self.scaled: list[float] = []  # the same, at the reference speed
        self.samples = 0  # local-training samples in timed rounds
        self.problems: list[str] = []
        self.cal, self.passes = cal, passes
        self.pass_times: list[float] = []
        if cal is not None:
            self.pass_times.append(cal.pass_s(passes))

    def step(self, timed: bool) -> dict:
        """Run one round; return the server state it started from."""
        r = self.runner
        before = {k: v.copy() for k, v in r.server_params.items()}
        t0 = time.perf_counter()
        m = r.run_round()
        dt = time.perf_counter() - t0
        self.metrics.append(m)
        fc = r.cfg.fed
        if self.cal is not None:
            self.pass_times.append(self.cal.pass_s(self.passes))
        if timed:
            self.times.append(dt)
            if self.cal is not None:
                around = (self.pass_times[-2] + self.pass_times[-1]) / 2
                self.scaled.append(dt * self.cal.ref_s / around)
            self.samples += sum(
                fc.local_updates * min(fc.batch_size, len(r.clients[c].labels))
                for c in m.client_ids
            )
        shapes = {k: v.shape for k, v in before.items()}
        self.problems += checks.check_uplink(m.uplink_kb, shapes, fc.algorithm, m.round)
        self.problems += checks.check_frozen(before, r.server_params, fc.algorithm, m.round)
        self.problems += checks.check_trained_changed(before, r.server_params,
                                                      fc.algorithm, m.round)
        return before

    @property
    def round_ms(self) -> float:
        return statistics.median(self.times) * 1e3

    @property
    def attempted(self) -> int:
        return sum(len(m.client_ids) for m in self.metrics)

    def save(self, outdir: Path) -> None:
        """Write metrics.csv and the float32 checkpoint.bin."""
        from fedtt.checkpoint import save_checkpoint

        (outdir / "metrics.csv").write_text(metrics_csv(self.metrics), encoding="utf-8")
        save_checkpoint(outdir / "checkpoint.bin", self.runner.server_params)

    def output_checks(self, outdir: Path) -> list[str]:
        """The per-round checks' findings, the eval recomputation in float64
        and from the saved checkpoint, the gradient check and, where the
        workload learns reliably, the learning check."""
        from fedtt.checkpoint import load_checkpoint

        r = self.runner
        cfg = r.cfg
        last = self.metrics[-1]

        def logits(params, tokens):
            return checks.dense_logits(cfg.model, cfg.data.classes, r.template.backbone,
                                       params, tokens)

        problems = list(self.problems)
        problems += checks.check_eval(last.eval_loss, last.eval_acc,
                                      logits(r.server_params, r.eval_tokens),
                                      r.eval_labels, loss_rtol=1e-12, tie_margin=1e-12)
        problems += [
            "checkpoint: " + p
            for p in checks.check_eval(last.eval_loss, last.eval_acc,
                                       logits(load_checkpoint(outdir / "checkpoint.bin"),
                                              r.eval_tokens),
                                       r.eval_labels, loss_rtol=1e-6, tie_margin=1e-5)
        ]
        problems += self.gradient_checks(logits)
        if self.learns:
            problems += checks.check_learns([m.eval_loss for m in self.metrics])
        return problems

    def gradient_checks(self, logits) -> list[str]:
        """``loss_and_grads`` on the final server state against the dense
        reference: at the workload's batch size and at one sample (the DP
        path), for every selection of trained cores the algorithm rotates
        through."""
        r = self.runner
        fc = r.cfg.fed
        client = r.clients[self.metrics[-1].client_ids[0]]
        rng = np.random.default_rng(0)
        params = dict(r.server_params)
        rotations = max(1, r.adapter_chain - 2) if fc.algorithm == "fedtt_plus" else 1
        problems = []
        for t in range(self.metrics[-1].round + 1, self.metrics[-1].round + 1 + rotations):
            trained = set(params) - checks.frozen_names(params, fc.algorithm, t)
            for size in sorted({1, min(fc.batch_size, len(client.labels))}):
                tok, lab = client.tokens[:size], client.labels[:size]

                def loss_of(p, tok=tok, lab=lab):
                    return checks.cross_entropy(logits(p, tok), lab)

                r.template.set_trainables(params)
                loss, grads = r.template.loss_and_grads(tok, lab, trained)
                problems += [f"round {t} selection, batch {size}: {p}" for p in
                             checks.check_gradient(loss_of, params, trained, loss,
                                                   grads, rng)]
        return problems


def end_to_end(run: Run, setup_s: float, rss_mb: float) -> dict:
    ms = run.metrics
    return {
        "setup_s": (setup_s, "s"),
        "round_ms": (statistics.median(run.scaled) * 1e3, "ms"),
        "train_samples_per_s": (run.samples / sum(run.scaled), "samples/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "uplink_kb_per_round": (
            statistics.fmean(len(m.client_ids) * m.uplink_kb for m in ms), "KB"),
    }


def run_untraced(workload, seed: int, seconds: float, outdir: Path):
    cfg = workload.config(seed)
    # Set-up is mostly pretraining, so it is calibrated at the pretraining
    # batch size, by blocks just before and just after it.  The time of the
    # block before is taken out of set-up time.
    setup_cal = calib.Calibration(cfg.model.pretrain_batch)
    t0 = time.perf_counter()
    pre_pass = setup_cal.pass_s(setup_cal.passes_for(calib.SETUP_CALIB_S))
    pre_s = time.perf_counter() - t0
    from fedtt.fed import FederatedRunner

    runner = FederatedRunner(cfg)
    setup_raw = since_process_start() - pre_s
    post_pass = setup_cal.pass_s(setup_cal.passes_for(calib.SETUP_CALIB_S))
    setup_pass = (pre_pass + post_pass) / 2
    # DP clients run one sample at a time.
    cal = calib.Calibration(1 if cfg.dp.enabled else cfg.fed.batch_size, cfg.fed.workers)
    run = Run(runner, workload.learns, cal,
              cal.passes_for(calib.ROUND_SHARE * workload.nominal_round_s))
    for t in range(workload.rounds(seconds)):
        run.step(timed=t > 0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.save(outdir)
    problems = run.output_checks(outdir)
    notes = {
        "raw.setup_s": (setup_raw, "s"),
        "raw.round_ms": (run.round_ms, "ms"),
        "calib.setup_pass_ms": (setup_pass * 1e3, "ms"),
        "calib.round_pass_ms": (statistics.median(run.pass_times) * 1e3, "ms"),
        "eval_acc": (run.metrics[-1].eval_acc, "fraction"),
    }
    metrics = end_to_end(run, setup_raw * setup_cal.ref_s / setup_pass, rss_mb)
    return metrics, problems, run.attempted, notes


def run_traced(workload, seed: int, seconds: float, outdir: Path):
    from fedtt.fed import FederatedRunner

    cfg = workload.config(seed)
    tracer, captured = layers.build_tracer()
    with tracer:  # cold set-up, pretraining included, under the tracer
        traced = Run(FederatedRunner(cfg), workload.learns)
    setup_end = time.perf_counter_ns()
    plain = Run(FederatedRunner(cfg), workload.learns)
    mc = cfg.model

    def rows_of(prefix):
        return checks.chain_rows(prefix, mc.d_model, mc.bottleneck, cfg.data.classes)

    problems, drifts, window = [], [], [None, None]
    # Two runners share the run's time, so each gets half of it.
    for t in range(workload.rounds(seconds / 2)):
        # Alternate which runner goes first so drift in host speed
        # falls on both sides of the overhead estimate.
        for run in ((traced, plain) if t % 2 else (plain, traced)):
            if run is plain:
                plain.step(timed=t > 0)
                continue
            if t == 1:
                window[0] = time.perf_counter_ns()
            with tracer:
                before = traced.step(timed=t > 0)
            window[1] = time.perf_counter_ns()
            (payloads, result), = captured
            captured.clear()
            problems += checks.check_aggregate(payloads, result)
            drifts.append(checks.drift(before, payloads, rows_of))

    with tracer:  # traces the checkpoint save, outside the timed window
        traced.save(outdir)
    problems += traced.output_checks(outdir)
    if metrics_csv(traced.metrics) != metrics_csv(plain.metrics):
        problems.append("traced metrics.csv differs from the untraced run's")
    problems += checks.check_clip(
        [s.value for s in tracer.spans if s.name == "privacy.clip"], cfg.dp.clip)
    metrics = layers.per_layer(tracer.spans, setup_end, window, traced, plain,
                               statistics.fmean(drifts))
    notes = {"eval_acc": (traced.metrics[-1].eval_acc, "fraction")}
    return metrics, problems, traced.attempted + plain.attempted, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "fedtt" / "__init__.py").is_file():
        print(f"perfbench: no fedtt sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    outdir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    fn = run_traced if args.trace else run_untraced
    metrics, problems, attempted, notes = fn(workload, args.seed, args.seconds, outdir)

    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"{name:40s} {value:.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"checks: {'all passed' if not problems else f'{len(problems)} failed'}; "
          f"client updates attempted {attempted}, failed 0")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
