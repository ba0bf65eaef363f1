"""Per-sample gradients from one batched backward.

The oracle is the loop the DP step used to run: one single-sample
``loss_and_grads`` per row.  The TT kernel's grouped grads are checked
against its ungrouped call and, with one group, bitwise against the
row-contracting tensordots the ungrouped kernel was written with.
"""

from dataclasses import replace

import numpy as np
import pytest

from fedtt.fed import (
    ClientState,
    FedConfig,
    FederatedRunner,
    _unflatten,
    local_update,
    select_trainable,
)
from fedtt.nn import AdamW, ToyModel, init_backbone
from fedtt.privacy import DPConfig, dp_batch_gradient
from fedtt.tt import TTWeight, random_tt, shape_plan_for, tt_forward, tt_vjp

from conftest import tiny_run_config

RTOL = 1e-12


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want)) / max(float(np.linalg.norm(want)), 1e-300)


# ----------------------------------------------------------- tt_vjp groups


def tensordot_core_grads(w: TTWeight, cache: tuple, dy: np.ndarray, mask) -> list:
    """Core grads with every row contraction done by one 2-D tensordot, the
    way the ungrouped kernel has always computed them."""
    states, lefts = cache
    a, j_total, ranks = len(w.row_dims), w.chain_length, w.ranks
    out = [np.zeros_like(f) for f in w.factors]
    if a:
        r_a = ranks[a]
        d_left = dy.T @ states[-1]
        rrows = [None] * (a + 1)
        rrows[a] = np.eye(r_a)[:, None, :]
        for j in range(a - 1, -1, -1):
            nxt = np.tensordot(w.factors[j], rrows[j + 1], axes=([2], [0]))
            rrows[j] = nxt.reshape(ranks[j], -1, r_a)
        for j in range(a):
            if mask[j]:
                kl, kr = lefts[j].shape[0], rrows[j + 1].shape[1]
                dl = d_left.reshape(kl, w.dims[j], kr, r_a)
                t = np.tensordot(lefts[j], dl, axes=([0], [0]))
                out[j] = np.tensordot(t, rrows[j + 1], axes=([2, 3], [1, 2]))
    d_state = dy @ lefts[-1]
    for j in range(a, j_total):
        n = d_state.ndim
        if mask[j]:
            s_in = states[j_total - 1 - j]
            out[j] = np.tensordot(d_state, s_in, axes=(list(range(n - 1)),) * 2)
        d_state = np.tensordot(d_state, w.factors[j], axes=([n - 1], [0]))
    return out


# (rows, cols): the adapter, head and criterion-7 plans plus odd splits.
PLAN_SHAPES = [(16, 64), (64, 16), (2, 64), (24, 64), (64, 24), (4, 64), (8, 32),
               (3, 5), (1, 12), (12, 1)]


@pytest.mark.parametrize("rows,cols", PLAN_SHAPES)
def test_grouped_vjp_sums_to_ungrouped_and_one_group_is_bitwise(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols)
    w = random_tt(shape_plan_for(rows, cols, 3), rng)
    masks = [None, [j % 2 == 0 for j in range(w.chain_length)]]
    for mask, b in zip(masks * 2, (1, 16, 48, 256)):
        x = rng.normal(size=(b, cols))
        dy = rng.normal(size=(b, rows))
        _, cache = tt_forward(w, x)
        full, dx = tt_vjp(w, cache, dy, mask)
        keep = mask or [True] * w.chain_length
        oracle = tensordot_core_grads(w, cache, dy, keep)
        one, dx_one = tt_vjp(w, cache, dy, mask, groups=1)
        assert dx_one.tobytes() == dx.tobytes()
        for j in range(w.chain_length):
            assert full[j].tobytes() == oracle[j].tobytes(), j
            assert one[j].shape == (1, *w.factors[j].shape)
            assert one[j][0].tobytes() == oracle[j].tobytes(), j
        for groups in {b, max(1, b // 16)}:
            grouped, dx_g = tt_vjp(w, cache, dy, mask, groups=groups)
            assert np.array_equal(dx_g, dx)
            for j in range(w.chain_length):
                assert grouped[j].shape == (groups, *w.factors[j].shape)
                if keep[j]:
                    assert rel_err(grouped[j].sum(axis=0), full[j]) <= RTOL, j
                else:
                    assert not grouped[j].any()


def test_grouped_vjp_matches_each_group_alone(rng):
    w = random_tt(shape_plan_for(16, 64, 5), rng)
    x = rng.normal(size=(12, 64))
    dy = rng.normal(size=(12, 16))
    _, cache = tt_forward(w, x)
    grouped, _ = tt_vjp(w, cache, dy, groups=3)
    for g in range(3):
        rows = slice(4 * g, 4 * g + 4)
        _, alone_cache = tt_forward(w, x[rows])
        alone, _ = tt_vjp(w, alone_cache, dy[rows])
        for j in range(w.chain_length):
            assert rel_err(grouped[j][g], alone[j]) <= RTOL


def test_grouped_vjp_rejects_uneven_groups(rng):
    w = random_tt(shape_plan_for(4, 8, 2), rng)
    _, cache = tt_forward(w, rng.normal(size=(6, 8)))
    with pytest.raises(ValueError, match="groups"):
        tt_vjp(w, cache, rng.normal(size=(6, 4)), groups=4)


# ----------------------------------------------------------- model level


def random_model(seed: int, **cfg) -> ToyModel:
    """A tiny model whose trainables are all random, so no grad is zero."""
    mc = replace(tiny_run_config().model.to_model_config(3), **cfg)
    rng = np.random.default_rng(seed)
    model = ToyModel(mc, init_backbone(mc, rng), rng)
    model.set_trainables({
        k: rng.normal(scale=0.3, size=v.shape) for k, v in model.trainables().items()
    })
    return model


def batch(model: ToyModel, b: int, seed: int):
    rng = np.random.default_rng(seed)
    cfg = model.cfg
    tokens = rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len))
    return tokens, rng.integers(0, cfg.num_classes, size=b)


def assert_matches_loop(model: ToyModel, tokens, labels, names=None) -> None:
    losses, grads = model.loss_and_grads(tokens, labels, names, per_sample=True)
    want_names = set(model.trainables()) if names is None else set(names)
    assert set(grads) == want_names
    assert losses.shape == (len(labels),)
    for i in range(len(labels)):
        loss_i, grads_i = model.loss_and_grads(tokens[i : i + 1], labels[i : i + 1], names)
        assert abs(losses[i] - loss_i) <= RTOL * abs(loss_i)
        for n, g in grads_i.items():
            assert grads[n].shape == (len(labels), *g.shape)
            assert rel_err(grads[n][i], g) <= RTOL, (i, n)


def test_per_sample_matches_loop_fedtt_three_core_chains():
    model = random_model(1)
    assert model.adapter_chain_length == 3
    assert_matches_loop(model, *batch(model, 6, 2))


def test_per_sample_matches_loop_fedtt_plus_every_rotation():
    model = random_model(2, bottleneck=24)
    chain = model.adapter_chain_length
    assert chain == 4
    tokens, labels = batch(model, 5, 3)
    meta = model.param_meta()
    for t in range(1, chain - 1):
        names = select_trainable(t, chain, "fedtt_plus").trainable_names(meta)
        frozen = set(meta) - set(names)
        assert frozen
        assert_matches_loop(model, tokens, labels, set(names))


@pytest.mark.parametrize("variant", [
    dict(head_mode="dense"), dict(activation="tanh"), dict(adapter_bias=False)
])
def test_per_sample_matches_loop_model_variants(variant):
    model = random_model(3, **variant)
    assert_matches_loop(model, *batch(model, 4, 4))


def test_per_sample_single_row_and_repeated_row():
    model = random_model(4)
    tokens, labels = batch(model, 4, 5)
    assert_matches_loop(model, tokens[:1], labels[:1])
    tokens[2], labels[2] = tokens[0], labels[0]
    losses, grads = model.loss_and_grads(tokens, labels, per_sample=True)
    assert_matches_loop(model, tokens, labels)
    assert abs(losses[2] - losses[0]) <= RTOL * abs(losses[0])
    for n, g in grads.items():
        assert rel_err(g[2], g[0]) <= RTOL, n


def test_per_sample_grads_sum_to_batch_gradient():
    model = random_model(5)
    tokens, labels = batch(model, 8, 6)
    losses, grads = model.loss_and_grads(tokens, labels, per_sample=True)
    loss, mean_grads = model.loss_and_grads(tokens, labels)
    assert abs(losses.mean() - loss) <= RTOL * abs(loss)
    for n, g in mean_grads.items():
        assert rel_err(grads[n].mean(axis=0), g) <= RTOL, n


# ----------------------------------------------------------- DP local update


def loop_dp_local_update(model, client, global_params, selection, fed_cfg, dp_cfg):
    """The DP step as a loop of single-sample passes, then clip and noise."""
    model.set_trainables(global_params)
    names = selection.trainable_names(model.param_meta())
    params = model.trainables()
    losses = []
    for _ in range(fed_cfg.local_updates):
        tok, lab = client.next_batch(fed_cfg.batch_size)
        rows, step_losses = [], []
        for i in range(len(lab)):
            li, gi = model.loss_and_grads(tok[i : i + 1], lab[i : i + 1], set(names))
            rows.append(np.concatenate([gi[n].ravel() for n in names]))
            step_losses.append(li)
        flat = dp_batch_gradient(np.stack(rows), dp_cfg.clip, client.sigma, client.dp_rng)
        grads = _unflatten(flat, names, {n: params[n].shape for n in names})
        client.optimizer.step(params, grads, names)
        losses.append(float(np.mean(step_losses)))
    return {n: params[n].copy() for n in names}, float(np.mean(losses))


@pytest.mark.parametrize("algorithm,bottleneck", [("fedtt", 8), ("fedtt_plus", 24)])
def test_dp_local_update_matches_loop(algorithm, bottleneck):
    model_a = random_model(6, bottleneck=bottleneck)
    model_b = random_model(6, bottleneck=bottleneck)
    server = model_a.get_trainables()
    tokens, labels = batch(model_a, 20, 7)
    fed_cfg = FedConfig(local_updates=2, batch_size=8, lr=1e-2)
    dp_cfg = DPConfig(enabled=True, clip=0.05, sigma=0.7)

    def client():
        return ClientState(0, tokens, labels, AdamW(lr=fed_cfg.lr),
                           np.random.default_rng(8), np.random.default_rng(9), 0.7)

    sel = select_trainable(2, model_a.adapter_chain_length, algorithm)
    got, loss = local_update(model_a, client(), server, sel, fed_cfg, dp_cfg)
    want, want_loss = loop_dp_local_update(model_b, client(), server, sel, fed_cfg, dp_cfg)
    assert set(got) == set(want)
    assert abs(loss - want_loss) <= RTOL * abs(want_loss)
    for n in want:
        assert rel_err(got[n] - server[n], want[n] - server[n]) <= 1e-9, n
        assert rel_err(got[n], want[n]) <= RTOL, n


# ----------------------------------------------------------- runner warning


def test_fedtt_plus_on_three_core_chains_warns_once():
    with pytest.warns(UserWarning, match="same algorithm as fedtt") as record:
        FederatedRunner(tiny_run_config(algorithm="fedtt_plus", rounds=1))
    assert len([w for w in record if w.category is UserWarning]) == 1


def test_fedtt_plus_on_four_core_chains_does_not_warn(recwarn):
    FederatedRunner(tiny_run_config(algorithm="fedtt_plus", bottleneck=24, rounds=1))
    assert not [w for w in recwarn if w.category is UserWarning]
