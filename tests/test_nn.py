"""Layers, adapters, optimizer, and the toy encoder model."""

import numpy as np
import pytest

from fedtt.data import generate_corpus
from fedtt.errors import NumericalError
from fedtt.nn import (
    AdamW,
    DenseAdapter,
    ModelSettings,
    TensorizedAdapter,
    TensorizedLinear,
    ToyModel,
    get_pretrained_backbone,
    init_backbone,
    linear_backward,
    pretrain_backbone,
    tt_linear_node,
)
from fedtt import autodiff as ad
from fedtt import nn, tt
from fedtt.fed import trainable_names
from fedtt.tt import reconstruct

from conftest import TINY_MODEL, tiny_run_config


def tiny_model_config(**overrides) -> ModelSettings:
    return tiny_run_config(**overrides).model


def randomize_adapter(adapter: TensorizedAdapter, rng) -> None:
    # kill the zero up-core so gradients flow through every parameter
    for arr in adapter.named_params().values():
        arr[...] = rng.normal(scale=0.3, size=arr.shape)


def fd(f, arr, eps=1e-6):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        arr[idx] += eps
        up = f()
        arr[idx] -= 2 * eps
        dn = f()
        arr[idx] += eps
        g[idx] = (up - dn) / (2 * eps)
    return g


# ------------------------------------------------------- TensorizedLinear


def test_linear_forward_matches_dense(rng):
    layer = TensorizedLinear.create(6, 8, 3, rng)
    layer.bias[:] = rng.normal(size=6)
    x = rng.normal(size=(5, 8))
    dense = reconstruct(layer.weight)
    assert np.allclose(layer.forward(x), x @ dense.T + layer.bias, atol=1e-12)
    assert layer.in_features == 8 and layer.out_features == 6


def test_linear_backward_matches_fd(rng):
    layer = TensorizedLinear.create(4, 6, 2, rng)
    layer.bias[:] = rng.normal(size=4)
    x = rng.normal(size=(3, 6))
    dy = rng.normal(size=(3, 4))

    def loss():
        return float(np.sum(dy * layer.forward(x)))

    d_factors, d_bias, dx = linear_backward(layer, x, dy)
    for j, f in enumerate(layer.weight.factors):
        assert np.allclose(d_factors[j], fd(loss, f), atol=1e-7), f"core {j}"
    assert np.allclose(d_bias, fd(loss, layer.bias), atol=1e-7)
    assert np.allclose(dx, fd(loss, x), atol=1e-7)


def test_linear_node_skips_a_frozen_core(rng, monkeypatch):
    layer = TensorizedLinear.create(6, 8, 2, rng)
    layer.bias[:] = rng.normal(size=6)
    x = rng.normal(size=(3, 8))
    dy = rng.normal(size=(3, 6))
    vjp_factors = []  # the core grads tt_vjp returns, per call
    vjp = tt.tt_vjp

    def spy(*args):
        out = vjp(*args)
        vjp_factors.append(out[0])
        return out

    monkeypatch.setattr(tt, "tt_vjp", spy)

    def grads(frozen):
        x_t = ad.Tensor(x)
        factor_ts = [
            ad.Tensor(f, requires_grad=j != frozen)
            for j, f in enumerate(layer.weight.factors)
        ]
        bias_t = ad.Tensor(layer.bias)
        tt_linear_node(x_t, layer, factor_ts, bias_t).backward(dy)
        return [t.grad for t in factor_ts], bias_t.grad, x_t.grad

    all_factors, all_bias, all_x = grads(None)
    assert all(g.any() for g in all_factors)
    for frozen in range(layer.weight.chain_length):
        factors, bias, dx = grads(frozen)
        assert factors[frozen] is None
        assert not vjp_factors[-1][frozen].any()  # its contraction was skipped
        for j, g in enumerate(factors):
            if j != frozen:
                assert np.array_equal(g, all_factors[j]), (frozen, j)
        assert np.array_equal(bias, all_bias)
        assert np.array_equal(dx, all_x)


def test_linear_node_forms_no_dx_for_an_input_without_grad(rng):
    layer = TensorizedLinear.create(6, 8, 2, rng)
    x = rng.normal(size=(3, 8))
    dy = rng.normal(size=(3, 6))

    def vjp(x_requires_grad):
        factor_ts = [ad.Tensor(f) for f in layer.weight.factors]
        node = tt_linear_node(ad.Tensor(x, requires_grad=x_requires_grad), layer,
                              factor_ts, ad.Tensor(layer.bias))
        return node.vjp(dy)

    frozen_x, live_x = vjp(False), vjp(True)
    assert frozen_x[0] is None and live_x[0] is not None
    for got, want in zip(frozen_x[1:], live_x[1:]):
        assert np.array_equal(got, want)


def test_model_first_adapter_map_gets_no_dx(small_setup, monkeypatch):
    # The block-0 attention adapter's down map reads only the frozen
    # backbone, so its input requires no grad and its dX is never formed.
    cfg, backbone, corpus = small_setup
    model = ToyModel(cfg, 2, backbone, np.random.default_rng(0))
    calls = []  # (weight, dX) per tt_vjp call
    vjp = tt.tt_vjp

    def spy(*args):
        out = vjp(*args)
        calls.append((args[0], out[1]))
        return out

    monkeypatch.setattr(tt, "tt_vjp", spy)
    model.loss_and_grads(corpus.tokens[:4], corpus.labels[:4])
    first = model.adapters["blocks.0.adapter.attn"].down.weight
    assert len(calls) == 2 * len(model.adapters) + 1  # every adapter map + head
    assert [w for w, dx in calls if dx is None] == [first]


def test_linear_bias_shape_checked(rng):
    layer = TensorizedLinear.create(4, 6, 2, rng)
    with pytest.raises(ValueError, match="bias"):
        TensorizedLinear(layer.weight, np.zeros(5))


# ------------------------------------------------------- TensorizedAdapter


def test_adapter_starts_as_identity(rng):
    adapter = TensorizedAdapter.create(16, 4, 2, rng)
    h = rng.normal(size=(7, 16))
    assert np.array_equal(adapter.forward(h), h)  # exact, not approximate


def test_adapter_param_names(rng):
    adapter = TensorizedAdapter.create(16, 4, 2, rng)
    names = set(adapter.named_params())
    assert "down.f0" in names and "up.f0" in names
    assert "down.bias" in names and "up.bias" in names
    no_bias = TensorizedAdapter.create(16, 4, 2, rng, bias=False)
    assert "down.bias" not in no_bias.named_params()


def test_adapter_backward_matches_fd(rng):
    adapter = TensorizedAdapter.create(8, 4, 2, rng, activation="tanh")
    randomize_adapter(adapter, rng)
    h = rng.normal(size=(3, 8))
    dy = rng.normal(size=(3, 8))

    def loss():
        return float(np.sum(dy * adapter.forward(h)))

    out, cache = adapter.forward_cached(h)
    grads, dh = adapter.backward(cache, dy)
    for name, arr in adapter.named_params().items():
        assert np.allclose(grads[name], fd(loss, arr), atol=1e-6), name
    assert np.allclose(dh, fd(loss, h), atol=1e-6)


def test_adapter_residual_path_in_dh(rng):
    # with a zeroed inner path the output grad passes straight through
    adapter = TensorizedAdapter.create(8, 4, 2, rng)
    h = rng.normal(size=(2, 8))
    dy = rng.normal(size=(2, 8))
    _, cache = adapter.forward_cached(h)
    _, dh = adapter.backward(cache, dy)
    assert np.allclose(dh, dy)


def test_adapter_copy_is_independent(rng):
    adapter = TensorizedAdapter.create(8, 4, 2, rng)
    clone = adapter.copy()
    clone.named_params()["down.f0"][...] = 99.0
    assert not np.array_equal(
        adapter.named_params()["down.f0"], clone.named_params()["down.f0"]
    )


# ------------------------------------------------------------ DenseAdapter


def test_dense_adapter_param_count_and_identity(rng):
    dense = DenseAdapter.create(768, 64, rng)
    assert dense.weight_param_count == 2 * 768 * 64  # 98304
    h = rng.normal(size=(3, 768))
    assert np.allclose(dense.forward(h), h)  # zero up-projection at init


# ------------------------------------------------------------------ AdamW


def reference_adamw(params, grad_seq, lr, wd=0.0, b1=0.9, b2=0.999, eps=1e-8):
    """Plain-loop AdamW, written independently as the oracle."""
    p = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(x) for k, x in params.items()}
    for t, grads in enumerate(grad_seq, start=1):
        for k in p:
            g = grads[k]
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            mh = m[k] / (1 - b1**t)
            vh = v[k] / (1 - b2**t)
            p[k] = p[k] - lr * (mh / (np.sqrt(vh) + eps) + wd * p[k])
    return p


def test_adamw_matches_reference_sequence(rng):
    params = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(4,))}
    grad_seq = [
        {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(4,))} for _ in range(7)
    ]
    want = reference_adamw(params, grad_seq, lr=0.01, wd=0.02)
    opt = AdamW(lr=0.01, weight_decay=0.02)
    live = {k: v.copy() for k, v in params.items()}
    for grads in grad_seq:
        opt.step(live, grads)
    for k in params:
        assert np.allclose(live[k], want[k], atol=1e-14), k


def test_adamw_reset_restarts_moments(rng):
    params = {"a": np.ones(3)}
    g = {"a": np.full(3, 0.5)}
    opt = AdamW(lr=0.1)
    opt.step(params, g)
    opt.step(params, g)
    opt.reset(["a"])
    assert "a" not in opt.state
    before = params["a"].copy()
    opt.step(params, g)
    # first-step bias correction makes the update exactly lr * sign(g)
    assert np.allclose(before - params["a"], 0.1 * np.sign(g["a"]), atol=1e-6)


def test_adamw_updates_moments_in_place_with_the_same_arithmetic(rng):
    params = {"a": rng.normal(size=(3, 2))}
    g1, g2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    opt = AdamW(lr=0.01)
    opt.step(params, {"a": g1})
    m, v, _ = opt.state["a"]
    m_want = 0.9 * m + (1.0 - 0.9) * g2
    v_want = 0.999 * v + (1.0 - 0.999) * g2 * g2
    opt.step(params, {"a": g2})
    m2, v2, t = opt.state["a"]
    assert m2 is m and v2 is v and t == 2
    np.testing.assert_array_equal(m2, m_want)
    np.testing.assert_array_equal(v2, v_want)


def test_adamw_step_subset_of_names(rng):
    params = {"a": np.ones(2), "b": np.ones(2)}
    grads = {"a": np.ones(2), "b": np.ones(2)}
    AdamW(lr=0.1).step(params, grads, names=["a"])
    assert not np.allclose(params["a"], 1.0)
    assert np.allclose(params["b"], 1.0)


def test_adamw_rejects_non_finite_grads():
    opt = AdamW()
    with pytest.raises(NumericalError, match="non-finite"):
        opt.step({"a": np.ones(2)}, {"a": np.array([1.0, np.nan])})


# ----------------------------------------------------------- ModelSettings


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelSettings(heads=3, d_model=64)  # heads must divide width
    with pytest.raises(ValueError):
        ModelSettings(head_mode="banana")
    with pytest.raises(ValueError):
        ModelSettings(activation="sigmoidish")
    with pytest.raises(ValueError):
        ModelSettings(vocab_size=0)


def test_adapter_chain_length_property():
    cfg = tiny_model_config()
    model = ToyModel(
        cfg, 2, init_backbone(cfg, np.random.default_rng(0)), np.random.default_rng(1)
    )
    assert {len(chain) for chain in model.adapter_cores} == {cfg.adapter_chain_length}


# ---------------------------------------------------------------- ToyModel


@pytest.fixture(scope="module")
def small_setup():
    cfg = tiny_model_config()
    backbone = init_backbone(cfg, np.random.default_rng(11))
    corpus = generate_corpus(2, 20, cfg.seq_len, cfg.vocab_size, 5)
    return cfg, backbone, corpus


def test_model_param_naming_and_meta(small_setup):
    cfg, backbone, _ = small_setup
    model = ToyModel(cfg, 2, backbone, np.random.default_rng(0))
    names = list(model.trainables())
    assert names[0].startswith("blocks.0.adapter.attn.down.f")
    assert "head.bias" in names
    # one chain per adapter map, its cores named f0.. in chain order
    assert len(model.adapter_cores) == 2 * len(model.adapters)
    for chain in model.adapter_cores:
        prefix = chain[0][: -len("f0")]
        assert chain == tuple(f"{prefix}f{j}" for j in range(len(chain)))
    cores = {n for chain in model.adapter_cores for n in chain}
    assert cores == {n for n in names if ".adapter." in n and not n.endswith(".bias")}


def test_model_zero_init_adapters_are_transparent(small_setup, monkeypatch):
    cfg, backbone, corpus = small_setup
    model = ToyModel(cfg, 2, backbone, np.random.default_rng(0))
    tok = corpus.tokens[:6]
    with_adapters = model.logits(tok)
    encode = nn.encode
    # the reference: the same model with no adapter spliced in
    monkeypatch.setattr(
        nn, "encode", lambda cfg, t, tokens, adapt=None: encode(cfg, t, tokens)
    )
    assert np.array_equal(with_adapters, model.logits(tok))


def test_model_set_get_trainables_round_trip(small_setup):
    cfg, backbone, _ = small_setup
    model = ToyModel(cfg, 2, backbone, np.random.default_rng(0))
    snap = model.get_trainables()
    for arr in model.trainables().values():
        arr += 1.0
    model.set_trainables(snap)
    for k, arr in model.trainables().items():
        assert np.array_equal(arr, snap[k])
    with pytest.raises(ValueError, match="mismatch"):
        model.set_trainables({k: v for k, v in list(snap.items())[:-1]})


def test_model_loss_grads_match_fd(small_setup):
    cfg, backbone, corpus = small_setup
    model = ToyModel(cfg, 2, backbone, np.random.default_rng(0))
    rng = np.random.default_rng(3)
    for adapter in model.adapters.values():
        randomize_adapter(adapter, rng)
    tok, lab = corpus.tokens[:5], corpus.labels[:5]
    loss, grads = model.loss_and_grads(tok, lab)
    assert np.isfinite(loss)
    eps = 1e-6
    params = model.trainables()
    for name in ("blocks.0.adapter.attn.down.f1", "blocks.0.adapter.mlp.up.f0",
                 "head.f1", "head.bias", "blocks.0.adapter.attn.up.bias"):
        arr = params[name]
        idx = (0,) * arr.ndim
        arr[idx] += eps
        up, _ = model.loss_and_grads(tok, lab, [])
        arr[idx] -= 2 * eps
        dn, _ = model.loss_and_grads(tok, lab, [])
        arr[idx] += eps
        assert abs(grads[name][idx] - (up - dn) / (2 * eps)) < 1e-6, name


def test_model_selected_names_filter_grads(small_setup):
    cfg, backbone, corpus = small_setup
    model = ToyModel(cfg, 2, backbone, np.random.default_rng(0))
    keep = ["head.bias", "blocks.0.adapter.attn.down.f0"]
    _, grads = model.loss_and_grads(corpus.tokens[:4], corpus.labels[:4], keep)
    assert set(grads) == set(keep)


def test_model_keeps_no_frozen_state_between_calls(small_setup):
    cfg, backbone, corpus = small_setup
    from dataclasses import replace

    cfg = replace(cfg, bottleneck=24)  # 4-core chains: fedtt_plus freezes one

    def model():
        m = ToyModel(cfg, 2, backbone, np.random.default_rng(0))
        rng = np.random.default_rng(5)
        for adapter in m.adapters.values():
            randomize_adapter(adapter, rng)
        return m

    tok, lab = corpus.tokens[:6], corpus.labels[:6]
    used = model()
    names = trainable_names(used, "fedtt_plus", 1)
    _, part = used.loss_and_grads(tok, lab, set(names))
    assert list(part) == list(names) and len(names) < len(used.trainables())
    loss, grads = used.loss_and_grads(tok, lab)
    fresh_loss, fresh = model().loss_and_grads(tok, lab)
    assert loss == fresh_loss and list(grads) == list(fresh)
    for n, g in fresh.items():
        assert np.array_equal(grads[n], g), n


def test_model_rejects_bad_tokens(small_setup):
    cfg, backbone, corpus = small_setup
    model = ToyModel(cfg, 2, backbone, np.random.default_rng(0))
    bad = corpus.tokens[:2].copy()
    bad[0, 0] = cfg.vocab_size  # out of vocabulary
    with pytest.raises(ValueError):
        model.logits(bad)
    with pytest.raises(ValueError):
        model.logits(corpus.tokens[:2, : cfg.seq_len - 1])


def test_model_evaluate_matches_direct_computation(small_setup):
    cfg, backbone, corpus = small_setup
    model = ToyModel(cfg, 2, backbone, np.random.default_rng(0))
    tok, lab = corpus.tokens[:17], corpus.labels[:17]
    loss, acc = model.evaluate(tok, lab, batch_size=5)
    out = model.logits(tok)
    want_acc = float((out.argmax(-1) == lab).mean())
    shifted = out - out.max(-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))
    want_loss = float(-logp[np.arange(len(lab)), lab].mean())
    assert acc == want_acc
    assert abs(loss - want_loss) < 1e-12


@pytest.mark.parametrize("head_mode", ["tensorized", "dense"])
def test_logits_record_no_tape_and_match_the_training_graph(
    small_setup, head_mode, monkeypatch
):
    cfg, backbone, corpus = small_setup
    from dataclasses import replace

    model = ToyModel(replace(cfg, head_mode=head_mode), 2, backbone,
                     np.random.default_rng(0))
    rng = np.random.default_rng(4)
    for adapter in model.adapters.values():
        randomize_adapter(adapter, rng)
    tok = corpus.tokens[:7]
    trained, _ = model._graph(tok)  # the graph loss_and_grads builds
    assert trained.requires_grad and trained.parents

    built = []
    graph = model._graph
    monkeypatch.setattr(
        model, "_graph", lambda *a, **k: built.append(graph(*a, **k)) or built[-1]
    )
    logits = model.logits(tok)
    (node, _), = built
    assert node.parents == () and node.vjp is None
    assert np.array_equal(logits, trained.data)


def test_dense_head_mode(small_setup):
    cfg, backbone, corpus = small_setup
    from dataclasses import replace

    dcfg = replace(cfg, head_mode="dense")
    model = ToyModel(dcfg, 2, backbone, np.random.default_rng(0))
    assert "head.w" in model.trainables() and "head.b" in model.trainables()
    loss, grads = model.loss_and_grads(corpus.tokens[:4], corpus.labels[:4])
    assert grads["head.w"].any()


# ---------------------------------------------------------------- pretrain


def head_probe_loss(cfg, backbone, corpus, steps=30) -> float:
    """Fit only the head on frozen features; the final loss scores the features."""
    model = ToyModel(cfg, 2, backbone, np.random.default_rng(1))
    head_names = [n for n in model.trainables() if n.startswith("head.")]
    opt = AdamW(lr=3e-2)
    for _ in range(steps):
        _, grads = model.loss_and_grads(corpus.tokens, corpus.labels, head_names)
        opt.step(model.trainables(), grads, head_names)
    loss, _ = model.evaluate(corpus.tokens, corpus.labels)
    return loss


def test_pretrain_features_beat_random_features():
    from dataclasses import replace

    cfg = tiny_model_config()
    corpus = generate_corpus(2, 60, cfg.seq_len, cfg.vocab_size, 21)
    backbone_cold = init_backbone(cfg, np.random.default_rng(7))
    backbone_warm = pretrain_backbone(
        replace(cfg, pretrain_steps=150, pretrain_lr=1e-3, pretrain_batch=16), 2,
        corpus.tokens, corpus.labels, np.random.default_rng(7),
    )
    assert "head.w" not in backbone_warm  # readout is discarded
    assert set(backbone_warm) == set(backbone_cold)
    probe_cold = head_probe_loss(cfg, backbone_cold, corpus)
    probe_warm = head_probe_loss(cfg, backbone_warm, corpus)
    assert probe_warm < probe_cold


def test_pretrained_backbone_cache_and_determinism():
    cfg = tiny_run_config().model  # pretrain_lr 1e-3, backbone_seed 7
    a = get_pretrained_backbone(cfg, 2)
    b = get_pretrained_backbone(cfg, 2)
    assert a is b  # cached
    assert all(not arr.flags.writeable for arr in a.values())
    get_pretrained_backbone.cache_clear()
    c = get_pretrained_backbone(cfg, 2)
    for k in a:
        assert np.array_equal(a[k], c[k]), k


def test_pretrained_backbone_cache_ignores_adapter_fields():
    m = dict(TINY_MODEL)
    base = tiny_model_config()
    other = tiny_model_config(bottleneck=24, tt_rank=2, head_mode="dense",
                              adapter_bias=False, activation="tanh")
    get_pretrained_backbone.cache_clear()
    a = get_pretrained_backbone(base, 2)
    b = get_pretrained_backbone(other, 2)
    assert get_pretrained_backbone.cache_info().misses == 1
    assert a is b
    corpus = generate_corpus(2, m["pretrain_per_class"],
                             base.seq_len, base.vocab_size, 7)
    cold = pretrain_backbone(other, 2, corpus.tokens, corpus.labels,
                             np.random.default_rng((7, 1)))
    assert set(cold) == set(a)
    for k in cold:
        assert np.array_equal(a[k], cold[k]), k
