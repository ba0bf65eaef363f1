"""Minimal reverse-mode autodiff over numpy arrays.

Tape-based: every op returns a Tensor holding its parents and a vjp
closure; ``backward`` walks the tape once in reverse topological order.
A leaf requires grad unless built with ``requires_grad=False``; an op's
output requires grad iff one of its parents does.  A node that requires
none keeps no parents and no vjp, so a forward over such leaves records
no tape, and ``backward`` neither visits it nor computes a grad for it.
An interior node's grad is dropped once its vjp has run, so the pass never
holds every activation's grad at once.  All math is float64.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "parents", "vjp", "requires_grad")

    def __init__(
        self,
        data,
        parents: tuple["Tensor", ...] = (),
        vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None,
        requires_grad: bool = True,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        if parents:
            requires_grad = any(p.requires_grad for p in parents)
        if not requires_grad:
            parents, vjp = (), None
        self.requires_grad = requires_grad
        self.parents = parents
        self.vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    def backward(self, grad=None) -> None:
        """Backpropagate from this node, seeded with ``grad`` (default ones)."""
        seed = np.ones_like(self.data) if grad is None else np.asarray(grad, np.float64)
        if seed.shape != self.data.shape:
            raise ValueError(f"seed shape {seed.shape} does not match {self.data.shape}")
        if not self.requires_grad:
            return
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p.requires_grad:
                    stack.append((p, False))
        self.grad = seed
        for node in reversed(order):
            if node.vjp is None or node.grad is None:
                continue
            for parent, g in zip(node.parents, node.vjp(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g
            if node.parents:
                node.grad = None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def vjp(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return Tensor(out, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    return Tensor(a.data * c, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data @ b.data

    def vjp(g):
        da = db = None
        if a.requires_grad:
            da = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        if b.requires_grad:
            db = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return da, db

    return Tensor(out, (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return Tensor(out, (a,), lambda g: (g * (a.data > 0),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return Tensor(out, (a,), lambda g: (g * (1.0 - out**2),))


def reshape(a: Tensor, shape) -> Tensor:
    return Tensor(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)
    return Tensor(
        a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),)
    )


def mean_axis(a: Tensor, axis: int) -> Tensor:
    n = a.data.shape[axis]
    out = a.data.mean(axis=axis)
    return Tensor(
        out, (a,), lambda g: (np.repeat(np.expand_dims(g / n, axis), n, axis),)
    )


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return Tensor(out, (a,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply elementwise gain and bias."""
    d = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gain.data * xhat + bias.data

    def vjp(g):
        dxhat = g * gain.data
        # Standard closed form: project out the mean and the xhat component.
        dx = (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        ) * inv
        axes = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=axes) if gain.requires_grad else None
        dbias = g.sum(axis=axes) if bias.requires_grad else None
        return dx, dgain, dbias

    return Tensor(out, (x, gain, bias), vjp)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    out = table.data[ids]

    def vjp(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids, g)
        return (dt,)

    return Tensor(out, (table,), vjp)


def cross_entropy(logits: Tensor, labels: np.ndarray, reduce: bool = True) -> Tensor:
    """Mean softmax cross-entropy of (B, C) logits against integer labels.

    With ``reduce`` False the result is the (B,) vector of per-row losses,
    and its vjp scales each row's p - onehot by that row's incoming grad.
    """
    z = logits.data
    b = z.shape[0]
    shifted = z - z.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1)) + z.max(axis=-1)
    rows = logsumexp - z[np.arange(b), labels]

    def vjp(g):
        p = np.exp(shifted)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(b), labels] -= 1.0
        return (g * p / b,) if reduce else (g[:, None] * p,)

    return Tensor(rows.mean() if reduce else rows, (logits,), vjp)
