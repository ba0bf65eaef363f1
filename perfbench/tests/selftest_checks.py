"""Each output check passes on the program's real output and fails on a
deliberately corrupted copy of it."""

from benchutil import tiny_runner

import numpy as np
import pytest

import checks
from fedtt import tt
from fedtt.checkpoint import load_checkpoint, save_checkpoint
from fedtt.fed import aggregate
from fedtt.privacy import clip


def _logits(runner, params):
    cfg = runner.cfg
    return checks.dense_logits(cfg.model, cfg.data.classes, runner.template.backbone,
                               params, runner.eval_tokens)


RNG_SEED = 1234


def test_tt_dense_matches_the_library_reconstruction():
    rng = np.random.default_rng(RNG_SEED)
    w = tt.random_tt(tt.shape_plan_for(24, 32, 3), rng)
    np.testing.assert_allclose(checks.tt_dense(w.factors, 24), tt.reconstruct(w),
                               rtol=1e-12, atol=1e-14)


def test_eval_recomputation_agrees_and_catches_a_corrupted_core():
    r = tiny_runner(algorithm="fedtt")
    m = [r.run_round() for _ in range(2)][-1]
    logits = _logits(r, r.server_params)
    assert checks.check_eval(m.eval_loss, m.eval_acc, logits, r.eval_labels,
                             1e-12, 1e-12) == []
    bad = dict(r.server_params)
    bad["head.f0"] = bad["head.f0"] * 1.5
    assert checks.check_eval(m.eval_loss, m.eval_acc, _logits(r, bad), r.eval_labels,
                             1e-12, 1e-12)
    assert checks.check_eval(m.eval_loss * (1 + 1e-9), m.eval_acc, logits,
                             r.eval_labels, 1e-12, 1e-12)


def test_float32_checkpoint_recomputation(tmp_path):
    r = tiny_runner(algorithm="fedtt")
    m = [r.run_round() for _ in range(2)][-1]
    path = tmp_path / "c.bin"
    save_checkpoint(path, r.server_params)
    loaded = load_checkpoint(path)
    assert checks.check_eval(m.eval_loss, m.eval_acc, _logits(r, loaded),
                             r.eval_labels, 1e-6, 1e-5) == []
    loaded["blocks.0.adapter.mlp.up.bias"] = loaded["blocks.0.adapter.mlp.up.bias"] + 0.05
    assert checks.check_eval(m.eval_loss, m.eval_acc, _logits(r, loaded),
                             r.eval_labels, 1e-6, 1e-5)


@pytest.mark.parametrize("algorithm", ["fedtt", "fedtt_plus"])
def test_uplink_rule_matches_and_catches_a_wrong_count(algorithm):
    r = tiny_runner(algorithm=algorithm)
    assert r.adapter_chain == 4
    shapes = {k: v.shape for k, v in r.server_params.items()}
    for _ in range(3):
        m = r.run_round()
        assert checks.check_uplink(m.uplink_kb, shapes, algorithm, m.round) == []
        assert checks.check_uplink(m.uplink_kb + 4 / 1024, shapes, algorithm, m.round)
    other = "fedtt" if algorithm == "fedtt_plus" else "fedtt_plus"
    assert checks.check_uplink(m.uplink_kb, shapes, other, m.round)


def test_trained_cores_rotate_over_the_interior():
    assert [checks.trained_cores(5, "fedtt_plus", t) for t in (1, 2, 3, 4)] == [
        {1, 3, 5}, {1, 4, 5}, {1, 2, 5}, {1, 3, 5}]
    assert checks.trained_cores(4, "fedtt", 7) == {1, 2, 3, 4}


def test_frozen_cores_stay_bitwise_and_a_changed_one_is_caught():
    r = tiny_runner(algorithm="fedtt_plus")
    for _ in range(2):
        before = {k: v.copy() for k, v in r.server_params.items()}
        m = r.run_round()
        assert checks.check_frozen(before, r.server_params, "fedtt_plus", m.round) == []
    after = dict(r.server_params)
    frozen = sorted(checks.frozen_names(after, "fedtt_plus", m.round))
    assert frozen
    after[frozen[0]] = np.nextafter(after[frozen[0]], np.inf)
    assert checks.check_frozen(before, after, "fedtt_plus", m.round)


def test_aggregate_matches_stacked_mean_and_catches_a_perturbation():
    rng = np.random.default_rng(RNG_SEED)
    payloads = [{"a": rng.normal(size=(3, 4, 5)), "b": rng.normal(size=7)}
                for _ in range(6)]
    out = aggregate(payloads)
    assert checks.check_aggregate(payloads, out) == []
    out["b"] = out["b"] * (1 + 1e-9)
    assert checks.check_aggregate(payloads, out)
    assert checks.check_aggregate(payloads, {"a": out["a"]})


def test_clip_bound():
    rng = np.random.default_rng(RNG_SEED)
    norms = [float(np.linalg.norm(clip(rng.normal(scale=s, size=50), 1.0)))
             for s in (0.01, 1.0, 100.0)]
    assert checks.check_clip(norms, 1.0) == []
    assert checks.check_clip(norms + [1.0 + 1e-9], 1.0)


def test_learning_check():
    assert checks.check_learns([0.9, 0.95, 0.8]) == []
    assert checks.check_learns([0.9, 0.8, 0.9])


def test_drift_is_zero_when_clients_differ_in_one_core_only():
    rng = np.random.default_rng(RNG_SEED)
    w = tt.random_tt(tt.shape_plan_for(24, 32, 3), rng)
    before = {f"head.f{j}": f for j, f in enumerate(w.factors)}
    one = [{"head.f1": before["head.f1"] + rng.normal(size=before["head.f1"].shape)}
           for _ in range(4)]
    assert checks.drift(before, one, lambda prefix: 24) <= 1e-12
    two = [{k: before[k] + rng.normal(size=before[k].shape) for k in ("head.f0", "head.f1")}
           for _ in range(4)]
    assert checks.drift(before, two, lambda prefix: 24) > 1e-3


def test_trained_parameters_move_and_a_stuck_one_is_caught():
    r = tiny_runner(algorithm="fedtt_plus")
    r.run_round()
    before = {k: v.copy() for k, v in r.server_params.items()}
    m = r.run_round()
    after = dict(r.server_params)
    assert checks.check_trained_changed(before, after, "fedtt_plus", m.round) == []
    # The round's rotating interior core, moved by one ulp only.
    (j,) = checks.trained_cores(4, "fedtt_plus", m.round) - {1, 4}
    name = f"blocks.0.adapter.attn.down.f{j - 1}"
    after[name] = np.nextafter(before[name], np.inf)
    assert checks.check_trained_changed(before, after, "fedtt_plus", m.round) == [
        f"round {m.round}: trained parameter {name} did not move"]


@pytest.mark.parametrize("size", [1, 8])
def test_gradient_check_passes_on_the_masked_path_and_catches_bad_gradients(size):
    r = tiny_runner(algorithm="fedtt_plus")
    r.run_round()
    params = dict(r.server_params)
    trained = set(params) - checks.frozen_names(params, "fedtt_plus", 2)
    client = r.clients[0]
    tok, lab = client.tokens[:size], client.labels[:size]

    def loss_of(p):
        return checks.cross_entropy(_logits_on(r, p, tok), lab)

    r.template.set_trainables(params)
    loss, grads = r.template.loss_and_grads(tok, lab, trained)
    rng = np.random.default_rng(RNG_SEED)
    assert checks.check_gradient(loss_of, params, trained, loss, grads, rng) == []
    core = "blocks.0.adapter.mlp.up.f1"  # the interior core round 2 rotates in
    assert core in trained
    for bad in ({**grads, core: grads[core] * 1.01}, {**grads, core: 0 * grads[core]}):
        assert checks.check_gradient(loss_of, params, trained, loss, bad, rng)
    missing = {k: v for k, v in grads.items() if k != core}
    assert checks.check_gradient(loss_of, params, trained, loss, missing, rng)
    assert checks.check_gradient(loss_of, params, trained, loss * (1 + 1e-9), grads, rng)


def _logits_on(runner, params, tokens):
    cfg = runner.cfg
    return checks.dense_logits(cfg.model, cfg.data.classes, runner.template.backbone,
                               params, tokens)
