"""Which library functions the traced run wraps, and the per-layer metrics.

Span names are ``<module>.<function>``.  Round metrics are per timed round
(the warm-up round is left out); ``.s`` metrics are totals over the set-up
(corpus, pretraining, runner construction).  README.md maps each metric to
the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import os

import numpy as np

from spans import Tracer, self_ns


def build_tracer():
    """A tracer over fedtt's layers and the list ``aggregate`` calls land in.

    Each wrap targets the attribute the caller looks up: ``fed`` imported
    some functions by name, so those are wrapped in ``fedtt.fed``.
    """
    from fedtt import autodiff, checkpoint, data, fed, nn, privacy, tt

    captured: list[tuple[list, dict]] = []

    def on_aggregate(args, out):
        captured.append((args[0], out))
        return sum(v.size for p in args[0] for v in p.values())

    tr = Tracer()
    tr.wrap(fed.FederatedRunner, "__init__", "fed.FederatedRunner.init")
    tr.wrap(fed.FederatedRunner, "run_round", "fed.run_round")
    tr.wrap(fed, "local_update", "fed.local_update")
    tr.wrap(fed, "aggregate", "fed.aggregate", on_aggregate)
    tr.wrap(fed, "get_pretrained_backbone", "nn.get_pretrained_backbone")
    tr.wrap(fed, "generate_corpus", "data.generate_corpus")
    tr.wrap(data, "generate_corpus", "data.generate_corpus")  # pretraining corpus
    tr.wrap(fed, "partition", "data.partition")
    tr.wrap(fed, "dp_batch_gradient", "privacy.dp_batch_gradient")
    tr.wrap(privacy, "clip", "privacy.clip", lambda a, out: float(np.linalg.norm(out)))
    tr.wrap(nn.ToyModel, "loss_and_grads", "nn.ToyModel.loss_and_grads",
            lambda a, out: len(a[2]))
    tr.wrap(nn.ToyModel, "evaluate", "nn.ToyModel.evaluate")
    tr.wrap(nn.AdamW, "step", "nn.AdamW.step")
    tr.wrap(autodiff.Tensor, "backward", "autodiff.Tensor.backward")
    tr.wrap(tt, "tt_forward", "tt.tt_forward")
    tr.wrap(tt, "tt_vjp", "tt.tt_vjp")
    tr.wrap(checkpoint, "save_checkpoint", "checkpoint.save_checkpoint",
            lambda a, out: os.path.getsize(a[0]))
    return tr, captured


def per_layer(spans, setup_end: int, window: tuple[int, int], traced, plain,
              drift: float) -> dict:
    """Per-layer metrics of a traced run.

    ``window`` is the (start, end) of the traced runner's timed rounds in
    ``perf_counter_ns``; ``traced``/``plain`` are the run's two Runs.
    """
    selfs = self_ns(spans)
    rounds = len(traced.times)
    timed = [s for s in spans if s.start >= window[0] and s.end <= window[1]]
    setup = [s for s in spans if s.end <= setup_end]
    by_name: dict[str, list] = {}
    for s in timed:
        by_name.setdefault(s.name, []).append(s)

    def ms(name, own=False):
        return sum(selfs[s.sid] if own else s.ns for s in by_name.get(name, ())) / rounds / 1e6

    def calls(name):
        return len(by_name.get(name, ())) / rounds

    def value(name):
        return sum(s.value for s in by_name.get(name, ())) / rounds

    def setup_s(name, own=False):
        return sum(selfs[s.sid] if own else s.ns for s in setup if s.name == name) / 1e9

    # Busy share of the worker threads over each round's local-update phase.
    busy = phase = 0
    fc = traced.runner.cfg.fed
    for r in by_name["fed.run_round"]:
        kids = [s for s in by_name["fed.local_update"] if s.parent == r.sid]
        busy += sum(s.ns for s in kids)
        width = min(fc.workers, len(kids)) if fc.workers > 1 else 1
        phase += width * (max(s.end for s in kids) - min(s.start for s in kids))
    saves = [s for s in spans if s.name == "checkpoint.save_checkpoint"]

    return {
        "fed.run_round.self_ms": (ms("fed.run_round", own=True), "ms"),
        "fed.worker_busy_share": (busy / phase, "fraction"),
        "fed.local_update.ms": (ms("fed.local_update"), "ms"),
        "fed.local_update.calls": (calls("fed.local_update"), "count"),
        "fed.aggregate.ms": (ms("fed.aggregate"), "ms"),
        "fed.aggregate.values": (value("fed.aggregate"), "count"),
        "fed.aggregate.drift": (drift, "ratio"),
        "fed.FederatedRunner.init.self_s": (setup_s("fed.FederatedRunner.init", own=True), "s"),
        "nn.get_pretrained_backbone.s": (setup_s("nn.get_pretrained_backbone"), "s"),
        "nn.ToyModel.loss_and_grads.ms": (ms("nn.ToyModel.loss_and_grads"), "ms"),
        "nn.ToyModel.loss_and_grads.calls": (calls("nn.ToyModel.loss_and_grads"), "count"),
        "nn.ToyModel.loss_and_grads.samples": (value("nn.ToyModel.loss_and_grads"), "count"),
        "nn.ToyModel.loss_and_grads.self_ms": (ms("nn.ToyModel.loss_and_grads", own=True), "ms"),
        "nn.ToyModel.evaluate.ms": (ms("nn.ToyModel.evaluate"), "ms"),
        "nn.AdamW.step.ms": (ms("nn.AdamW.step"), "ms"),
        "autodiff.Tensor.backward.self_ms": (ms("autodiff.Tensor.backward", own=True), "ms"),
        "autodiff.Tensor.backward.setup_self_s": (
            setup_s("autodiff.Tensor.backward", own=True), "s"),
        "tt.tt_forward.ms": (ms("tt.tt_forward"), "ms"),
        "tt.tt_forward.calls": (calls("tt.tt_forward"), "count"),
        "tt.tt_vjp.ms": (ms("tt.tt_vjp"), "ms"),
        "tt.tt_vjp.calls": (calls("tt.tt_vjp"), "count"),
        # 0 on the workloads without DP, which never enter this layer.
        "privacy.dp_batch_gradient.ms": (ms("privacy.dp_batch_gradient"), "ms"),
        "privacy.clip.calls": (calls("privacy.clip"), "count"),
        "data.generate_corpus.s": (setup_s("data.generate_corpus"), "s"),
        "data.partition.s": (setup_s("data.partition"), "s"),
        "checkpoint.save_checkpoint.ms": (sum(s.ns for s in saves) / 1e6, "ms"),
        "checkpoint.save_checkpoint.bytes": (sum(s.value for s in saves), "bytes"),
        "trace.round_ms": (traced.round_ms, "ms"),
        "trace.untraced_round_ms": (plain.round_ms, "ms"),
        "trace.overhead_ms": (traced.round_ms - plain.round_ms, "ms"),
        "trace.spans_per_round": (len(timed) / rounds, "count"),
    }
