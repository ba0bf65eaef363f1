"""Reverse-mode engine: every op's vjp against central finite differences."""

import numpy as np
import pytest

from fedtt import autodiff as ad


def fd_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function, the test oracle."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        x[idx] += eps
        up = f()
        x[idx] -= 2 * eps
        dn = f()
        x[idx] += eps
        g[idx] = (up - dn) / (2 * eps)
    return g


def check_unary(build, x, atol=1e-7):
    """build(Tensor) -> Tensor; compares backward() against fd_grad."""
    t = ad.Tensor(x)
    out = build(t)
    out.backward()
    want = fd_grad(lambda: float(build(ad.Tensor(x)).data.sum()), x)
    assert np.allclose(t.grad, want, atol=atol)


def test_add_with_broadcasting(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    ta, tb = ad.Tensor(a), ad.Tensor(b)
    out = ad.add(ta, tb)
    assert np.allclose(out.data, a + b)
    out.backward()
    assert np.allclose(ta.grad, np.ones((3, 4)))
    # the broadcast operand collects grads summed over the expanded rows
    assert np.allclose(tb.grad, np.full(4, 3.0))


def test_matmul_grads(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    ta, tb = ad.Tensor(a), ad.Tensor(b)
    ad.matmul(ta, tb).backward()
    want_a = fd_grad(lambda: float((a @ b).sum()), a)
    want_b = fd_grad(lambda: float((a @ b).sum()), b)
    assert np.allclose(ta.grad, want_a, atol=1e-7)
    assert np.allclose(tb.grad, want_b, atol=1e-7)


def test_batched_matmul_broadcast_grads(rng):
    a = rng.normal(size=(5, 3, 4))
    b = rng.normal(size=(4, 2))  # shared across the batch
    ta, tb = ad.Tensor(a), ad.Tensor(b)
    ad.matmul(ta, tb).backward()
    want_b = fd_grad(lambda: float((a @ b).sum()), b)
    assert tb.grad.shape == b.shape
    assert np.allclose(tb.grad, want_b, atol=1e-6)


def test_relu_grad(rng):
    x = rng.normal(size=(4, 5))
    x[np.abs(x) < 1e-3] = 0.5  # keep away from the kink
    check_unary(lambda t: ad.relu(t), x)


def test_tanh_grad(rng):
    x = rng.normal(size=(4, 5))
    check_unary(lambda t: ad.tanh(t), x)


def test_scale_reshape_transpose_mean(rng):
    x = rng.normal(size=(2, 3, 4))
    check_unary(lambda t: ad.scale(t, -2.5), x)
    check_unary(lambda t: ad.reshape(t, (6, 4)), x)
    check_unary(lambda t: ad.transpose(t, (2, 0, 1)), x)
    check_unary(lambda t: ad.mean_axis(t, 1), x)


def test_softmax_rows_sum_to_one_and_grad(rng):
    x = rng.normal(size=(3, 6))
    t = ad.Tensor(x)
    out = ad.softmax(t)
    assert np.allclose(out.data.sum(axis=-1), 1.0)

    # weighted sum so the gradient is not identically zero
    w = rng.normal(size=(3, 6))
    t2 = ad.Tensor(x)
    out2 = ad.softmax(t2)
    weighted = ad.matmul(ad.reshape(out2, (1, 18)), ad.Tensor(w.reshape(18, 1)))
    weighted.backward()
    want = fd_grad(
        lambda: float(
            (np.exp(x - x.max(-1, keepdims=True))
             / np.exp(x - x.max(-1, keepdims=True)).sum(-1, keepdims=True) * w).sum()
        ),
        x,
    )
    assert np.allclose(t2.grad, want, atol=1e-7)


def test_layer_norm_output_and_grads(rng):
    x = rng.normal(size=(5, 8))
    gain = rng.normal(size=8)
    bias = rng.normal(size=8)
    tx, tg, tb = ad.Tensor(x), ad.Tensor(gain), ad.Tensor(bias)
    out = ad.layer_norm(tx, tg, tb)
    # row-wise: mean ~ bias-mean relationship holds through the affine part
    raw = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
    assert np.allclose(out.data, raw * gain + bias, atol=1e-12)

    out.backward()

    def f():
        r = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
        return float((r * gain + bias).sum())

    assert np.allclose(tx.grad, fd_grad(f, x), atol=1e-6)
    assert np.allclose(tg.grad, fd_grad(f, gain), atol=1e-6)
    assert np.allclose(tb.grad, fd_grad(f, bias), atol=1e-6)


def test_embedding_lookup_and_scatter(rng):
    table = rng.normal(size=(7, 3))
    ids = np.array([[1, 1, 4], [0, 6, 1]])
    tt = ad.Tensor(table)
    out = ad.embedding(tt, ids)
    assert out.data.shape == (2, 3, 3)
    assert np.allclose(out.data, table[ids])
    out.backward()
    # duplicate ids must accumulate: id 1 appears three times
    want = np.zeros_like(table)
    np.add.at(want, ids.ravel(), np.ones((6, 3)))
    assert np.allclose(tt.grad, want)


def test_cross_entropy_matches_manual_log_softmax(rng):
    logits = rng.normal(size=(4, 3)) * 3
    labels = np.array([0, 2, 1, 2])
    t = ad.Tensor(logits)
    loss = ad.cross_entropy(t, labels)
    shifted = logits - logits.max(-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))
    want = -logp[np.arange(4), labels].mean()
    assert abs(float(loss.data) - want) < 1e-12

    loss.backward()
    want_g = fd_grad(
        lambda: -(
            (logits - logits.max(-1, keepdims=True))
            - np.log(np.exp(logits - logits.max(-1, keepdims=True)).sum(-1, keepdims=True))
        )[np.arange(4), labels].mean(),
        logits,
    )
    assert np.allclose(t.grad, want_g, atol=1e-7)


def test_cross_entropy_is_stable_for_huge_logits():
    logits = np.array([[1000.0, -1000.0], [800.0, 800.0]])
    loss = ad.cross_entropy(ad.Tensor(logits), np.array([0, 1]))
    assert np.isfinite(float(loss.data))


def test_diamond_graph_accumulates(rng):
    # y = x@A + x@B reuses x; dx must be the sum of both paths
    x = rng.normal(size=(2, 3))
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    tx = ad.Tensor(x)
    out = ad.add(ad.matmul(tx, ad.Tensor(a)), ad.matmul(tx, ad.Tensor(b)))
    out.backward()
    assert np.allclose(tx.grad, np.ones((2, 3)) @ (a + b).T)


def test_composite_mlp_grads(rng):
    x = rng.normal(size=(4, 6))
    w1 = rng.normal(size=(6, 5))
    w2 = rng.normal(size=(5, 2))
    labels = np.array([0, 1, 1, 0])

    def forward(w1v, w2v):
        h = np.maximum(x @ w1v, 0.0)
        logits = h @ w2v
        s = logits - logits.max(-1, keepdims=True)
        logp = s - np.log(np.exp(s).sum(-1, keepdims=True))
        return -logp[np.arange(4), labels].mean()

    t1, t2 = ad.Tensor(w1), ad.Tensor(w2)
    loss = ad.cross_entropy(ad.matmul(ad.relu(ad.matmul(ad.Tensor(x), t1)), t2), labels)
    assert abs(float(loss.data) - forward(w1, w2)) < 1e-12
    loss.backward()
    assert np.allclose(t1.grad, fd_grad(lambda: forward(w1, w2), w1), atol=1e-7)
    assert np.allclose(t2.grad, fd_grad(lambda: forward(w1, w2), w2), atol=1e-7)


def test_backward_seeds_with_ones(rng):
    t = ad.Tensor(rng.normal(size=(3,)))
    ad.scale(t, 2.0).backward()
    assert np.allclose(t.grad, 2.0)


def test_backward_with_seed_scales_the_ones_seed(rng):
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))
    seed = rng.normal(size=(3, 2))
    seeded, ones = ad.Tensor(x), ad.Tensor(x)
    ad.tanh(ad.matmul(seeded, ad.Tensor(w))).backward(seed)
    # A per-element seed is the ones seed applied to the output scaled by it.
    y = ad.tanh(ad.matmul(ones, ad.Tensor(w)))
    ad.Tensor(y.data * seed, (y,), lambda g: (g * seed,)).backward()
    assert np.allclose(seeded.grad, ones.grad, atol=1e-14)
    with pytest.raises(ValueError, match="seed shape"):
        ad.tanh(ad.Tensor(x)).backward(np.ones(3))


# ---------------------------------------------------------- requires_grad


def assert_pruned_grads_bitwise(build, arrays, frozen):
    """Backward through ``build`` with the leaves named in ``frozen`` built
    without requires_grad: they get no grad, and every other leaf's grad is
    bitwise that of the same graph with every leaf requiring grad."""
    runs = []
    for off in (frozen, ()):
        leaves = {
            k: ad.Tensor(v, requires_grad=k not in off) for k, v in arrays.items()
        }
        build(leaves).backward()
        runs.append(leaves)
    pruned, full = runs
    for k in arrays:
        if k in frozen:
            assert pruned[k].grad is None, k
        else:
            assert np.array_equal(pruned[k].grad, full[k].grad), k


def test_frozen_leaf_collects_no_grad_and_its_ops_record_no_tape(rng):
    w = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=False)
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=False)
    inner = ad.relu(ad.matmul(x, w))
    assert not inner.requires_grad
    assert inner.parents == () and inner.vjp is None
    b = ad.Tensor(rng.normal(size=(2,)))
    out = ad.add(inner, b)
    assert out.requires_grad and out.parents == (inner, b)
    out.backward()
    assert w.grad is None and x.grad is None and inner.grad is None
    assert np.array_equal(b.grad, np.full(2, 3.0))


def test_matmul_prunes_either_side_bitwise(rng):
    arrays = {"a": rng.normal(size=(5, 3, 4)), "b": rng.normal(size=(4, 2))}

    def build(t):
        return ad.tanh(ad.matmul(t["a"], t["b"]))

    assert_pruned_grads_bitwise(build, arrays, ("a",))
    assert_pruned_grads_bitwise(build, arrays, ("b",))


def test_broadcasting_add_prunes_either_side_bitwise(rng):
    arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4,))}

    def build(t):
        return ad.tanh(ad.add(t["a"], t["b"]))

    assert_pruned_grads_bitwise(build, arrays, ("a",))
    assert_pruned_grads_bitwise(build, arrays, ("b",))


def test_layer_norm_with_frozen_gain_and_bias_bitwise(rng):
    arrays = {
        "x": rng.normal(size=(2, 5, 8)),
        "w": rng.normal(size=(8, 8)),
        "gain": rng.normal(size=8),
        "bias": rng.normal(size=8),
    }

    def build(t):
        h = ad.matmul(t["x"], t["w"])
        return ad.tanh(ad.layer_norm(h, t["gain"], t["bias"]))

    assert_pruned_grads_bitwise(build, arrays, ("gain", "bias"))
    assert_pruned_grads_bitwise(build, arrays, ("x", "gain", "bias"))
    # A frozen input straight into the norm: its dx is dropped, not stored.
    del arrays["w"]

    def norm_only(t):
        return ad.tanh(ad.layer_norm(t["x"], t["gain"], t["bias"]))

    assert_pruned_grads_bitwise(norm_only, arrays, ("x",))


def test_embedding_with_frozen_table_bitwise(rng):
    ids = np.array([[1, 1, 4], [0, 6, 1]])
    arrays = {"table": rng.normal(size=(7, 3)), "pos": rng.normal(size=(3, 3))}

    def build(t):
        return ad.tanh(ad.add(ad.embedding(t["table"], ids), t["pos"]))

    assert_pruned_grads_bitwise(build, arrays, ("table",))


def test_diamond_graph_with_frozen_weights_bitwise(rng):
    arrays = {
        "x": rng.normal(size=(2, 3)),
        "a": rng.normal(size=(3, 3)),
        "b": rng.normal(size=(3, 3)),
    }

    def build(t):
        return ad.add(ad.matmul(t["x"], t["a"]), ad.matmul(t["x"], t["b"]))

    assert_pruned_grads_bitwise(build, arrays, ("a", "b"))
    assert_pruned_grads_bitwise(build, arrays, ("x", "b"))


def test_backward_from_a_root_needing_no_grad_is_a_no_op(rng):
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=False)
    w = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=False)
    out = ad.tanh(ad.matmul(x, w))
    out.backward()
    assert out.grad is None and x.grad is None and w.grad is None
