"""Tensorized layers, adapters, AdamW, and the frozen-backbone toy model.

:class:`ModelSettings` is the one description of the model: the ``model.*``
config section, which ``ToyModel`` and the pretraining functions build from.
The class count is ``data.classes`` and is passed beside it.

The trainable surface of a model is a flat, insertion-ordered mapping from
parameter names to float64 arrays; everything federated operates on that
mapping.  A parameter is frozen for one pass by building its autodiff leaf
with ``requires_grad=False``: the backward then computes no grad for it, and
a TT layer skips a frozen core's contraction.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from . import autodiff as ad
from . import tt
from .errors import NumericalError

__all__ = [
    "ACTIVATIONS",
    "TensorizedLinear",
    "TensorizedAdapter",
    "DenseAdapter",
    "linear_backward",
    "AdamW",
    "ModelSettings",
    "ToyModel",
    "init_backbone",
    "pretrain_backbone",
    "get_pretrained_backbone",
]

ACTIVATIONS = {"relu": ad.relu, "tanh": ad.tanh}


def _row_sum(g: np.ndarray, groups: int | None) -> np.ndarray:
    """Bias gradient: the sum over rows, or per group of consecutive rows."""
    if groups is None:
        return g.sum(axis=0)
    return g.reshape(groups, -1, g.shape[-1]).sum(axis=1)


class TensorizedLinear:
    """Affine map y = W x + b with W held as a TT chain."""

    def __init__(
        self,
        weight: tt.TTWeight,
        bias: np.ndarray | None = None,
    ):
        self.weight = weight
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != (weight.rows,):
                raise ValueError(
                    f"bias shape {bias.shape} does not match {weight.rows} outputs"
                )
        self.bias = bias

    @property
    def in_features(self) -> int:
        return self.weight.cols

    @property
    def out_features(self) -> int:
        return self.weight.rows

    @classmethod
    def create(
        cls,
        out_features: int,
        in_features: int,
        rank: int,
        rng: np.random.Generator,
        bias: bool = True,
        zero_last: bool = False,
    ) -> "TensorizedLinear":
        plan = tt.shape_plan_for(out_features, in_features, rank)
        weight = tt.random_tt(plan, rng, zero_last=zero_last)
        b = np.zeros(out_features) if bias else None
        return cls(weight, b)

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        y, cache = tt.tt_forward(self.weight, x)
        if self.bias is not None:
            y = y + self.bias
        return y, cache

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_cached(x)[0]

    def copy(self) -> "TensorizedLinear":
        return TensorizedLinear(
            self.weight.copy(),
            None if self.bias is None else self.bias.copy(),
        )


# The nodes below take ``groups`` as tt.tt_vjp does: with groups = G the
# rows are G samples' consecutive row blocks, and each parameter's grad
# gets a leading sample axis of size G.


def tt_linear_node(
    x: ad.Tensor,
    layer: TensorizedLinear,
    factor_ts: list[ad.Tensor],
    bias_t: ad.Tensor | None,
    groups: int | None = None,
) -> ad.Tensor:
    """The layer as one tape node over x, its cores and its bias.

    A core whose Tensor requires no grad is frozen: its contraction is
    skipped; an input that requires no grad gets no dX.
    """
    y, cache = layer.forward_cached(x.data)
    parents = (x, *factor_ts) + ((bias_t,) if bias_t is not None else ())
    mask = [f.requires_grad for f in factor_ts]

    def vjp(g):
        d_factors, dx = tt.tt_vjp(
            layer.weight, cache, g, mask, groups, x.requires_grad
        )
        grads = [dx, *d_factors]
        if bias_t is not None:
            grads.append(_row_sum(g, groups))
        return grads

    return ad.Tensor(y, parents, vjp)


def linear_backward(
    layer: TensorizedLinear, x: np.ndarray, dy: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray | None, np.ndarray]:
    """Exact gradients of sum(dy * forward(x)) for each core, bias, and x."""
    x_t = ad.Tensor(x)
    factor_ts = [ad.Tensor(f) for f in layer.weight.factors]
    bias_t = None if layer.bias is None else ad.Tensor(layer.bias)
    tt_linear_node(x_t, layer, factor_ts, bias_t).backward(dy)
    d_bias = None if bias_t is None else bias_t.grad
    return [f.grad for f in factor_ts], d_bias, x_t.grad


class TensorizedAdapter:
    """Residual bottleneck adapter: h + up(act(down(h))), both maps TT."""

    def __init__(
        self,
        down: TensorizedLinear,
        up: TensorizedLinear,
        activation: str = "relu",
    ):
        if down.out_features != up.in_features:
            raise ValueError("down output width must feed the up projection")
        if down.in_features != up.out_features:
            raise ValueError("the residual needs matching outer widths")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.down = down
        self.up = up
        self.activation = activation

    @property
    def hidden(self) -> int:
        return self.down.in_features

    @property
    def bottleneck(self) -> int:
        return self.down.out_features

    @classmethod
    def create(
        cls,
        hidden: int,
        bottleneck: int,
        rank: int,
        rng: np.random.Generator,
        bias: bool = True,
        activation: str = "relu",
    ) -> "TensorizedAdapter":
        down = TensorizedLinear.create(bottleneck, hidden, rank, rng, bias=bias)
        # Zero final up-core: the adapter starts as the identity map.
        up = TensorizedLinear.create(
            hidden, bottleneck, rank, rng, bias=bias, zero_last=True
        )
        return cls(down, up, activation)

    def named_params(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for side, layer in (("down", self.down), ("up", self.up)):
            for j, f in enumerate(layer.weight.factors):
                out[f"{side}.f{j}"] = f
            if layer.bias is not None:
                out[f"{side}.bias"] = layer.bias
        return out

    def node(
        self,
        h: ad.Tensor,
        param_ts: Mapping[str, ad.Tensor],
        groups: int | None = None,
    ) -> ad.Tensor:
        """h + up(act(down(h))) on the tape; ``param_ts`` is keyed as
        :meth:`named_params`."""

        def linear(x: ad.Tensor, side: str, layer: TensorizedLinear) -> ad.Tensor:
            factor_ts = [
                param_ts[f"{side}.f{j}"] for j in range(layer.weight.chain_length)
            ]
            bias_t = None if layer.bias is None else param_ts[f"{side}.bias"]
            return tt_linear_node(x, layer, factor_ts, bias_t, groups)

        a = ACTIVATIONS[self.activation](linear(h, "down", self.down))
        return ad.add(h, linear(a, "up", self.up))

    def forward_cached(self, h: np.ndarray) -> tuple[np.ndarray, tuple]:
        h_t = ad.Tensor(h)
        param_ts = {n: ad.Tensor(v) for n, v in self.named_params().items()}
        y = self.node(h_t, param_ts)
        return y.data, (h_t, param_ts, y)

    def forward(self, h: np.ndarray) -> np.ndarray:
        return self.forward_cached(h)[0]

    def backward(
        self, cache: tuple, dy: np.ndarray
    ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Parameter grads and dh of sum(dy * forward(h)), once per cache."""
        h_t, param_ts, y = cache
        y.backward(dy)
        return {n: t.grad for n, t in param_ts.items()}, h_t.grad

    def copy(self) -> "TensorizedAdapter":
        return TensorizedAdapter(self.down.copy(), self.up.copy(), self.activation)


class DenseAdapter:
    """Dense residual bottleneck adapter, kept as a reference point."""

    def __init__(
        self,
        w_down: np.ndarray,
        w_up: np.ndarray,
        b_down: np.ndarray | None = None,
        b_up: np.ndarray | None = None,
        activation: str = "relu",
    ):
        self.w_down = np.asarray(w_down, dtype=np.float64)
        self.w_up = np.asarray(w_up, dtype=np.float64)
        if self.w_down.shape[0] != self.w_up.shape[1]:
            raise ValueError("bottleneck widths disagree")
        if self.w_down.shape[1] != self.w_up.shape[0]:
            raise ValueError("outer widths disagree")
        self.b_down = b_down
        self.b_up = b_up
        self.activation = activation

    @classmethod
    def create(
        cls,
        hidden: int,
        bottleneck: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> "DenseAdapter":
        w_down = rng.normal(0.0, 1.0 / math.sqrt(hidden), (bottleneck, hidden))
        w_up = np.zeros((hidden, bottleneck))
        b_down = np.zeros(bottleneck) if bias else None
        b_up = np.zeros(hidden) if bias else None
        return cls(w_down, w_up, b_down, b_up)

    @property
    def weight_param_count(self) -> int:
        return self.w_down.size + self.w_up.size

    def forward(self, h: np.ndarray) -> np.ndarray:
        z = h @ self.w_down.T
        if self.b_down is not None:
            z = z + self.b_down
        u = ACTIVATIONS[self.activation](ad.Tensor(z)).data @ self.w_up.T
        if self.b_up is not None:
            u = u + self.b_up
        return h + u


class AdamW:
    """Adam with decoupled weight decay and per-parameter step counters."""

    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.state: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}

    def step(
        self,
        params: dict[str, np.ndarray],
        grads: Mapping[str, np.ndarray],
        names=None,
    ) -> None:
        for name in names if names is not None else grads:
            g = grads[name]
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient for parameter {name!r}")
            if name in self.state:
                m, v, t = self.state[name]
            else:
                m = np.zeros_like(params[name])
                v = np.zeros_like(params[name])
                t = 0
            t += 1
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * params[name]
            params[name] -= self.lr * update
            self.state[name] = (m, v, t)

    def reset(self, names) -> None:
        for name in names:
            self.state.pop(name, None)


@dataclass(frozen=True)
class ModelSettings:
    """The ``model.*`` config section: frozen backbone, adapters, pretraining."""

    vocab_size: int = 32
    seq_len: int = 16
    d_model: int = 64
    blocks: int = 2
    heads: int = 2
    mlp_hidden: int = 128
    bottleneck: int = 16
    tt_rank: int = 5
    head_mode: str = "tensorized"
    adapter_bias: bool = True
    activation: str = "relu"
    backbone_seed: int = 7
    pretrain_steps: int = 300
    pretrain_lr: float = 1e-3
    pretrain_batch: int = 32
    pretrain_per_class: int = 200

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError("model.vocab_size must be at least 2")
        for f in ("seq_len", "d_model", "blocks", "heads", "mlp_hidden",
                  "bottleneck", "tt_rank", "pretrain_batch", "pretrain_per_class"):
            if getattr(self, f) < 1:
                raise ValueError(f"model.{f} must be positive")
        for f in ("pretrain_steps", "backbone_seed"):
            if getattr(self, f) < 0:
                raise ValueError(f"model.{f} must be non-negative")
        if self.d_model % self.heads:
            raise ValueError("model.d_model must be divisible by model.heads")
        if self.head_mode not in ("tensorized", "dense"):
            raise ValueError("model.head_mode must be tensorized or dense")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"model.activation must be one of {tuple(ACTIVATIONS)}")
        if not 0 < self.pretrain_lr < math.inf:
            raise ValueError("model.pretrain_lr must be finite and positive")

    @property
    def adapter_chain_length(self) -> int:
        return tt.shape_plan_for(self.bottleneck, self.d_model, self.tt_rank).chain_length


def init_backbone(cfg: ModelSettings, rng: np.random.Generator) -> dict[str, np.ndarray]:
    d, m = cfg.d_model, cfg.mlp_hidden
    params: dict[str, np.ndarray] = {
        "embed.tok": rng.normal(0.0, 0.1, (cfg.vocab_size, d)),
        "embed.pos": rng.normal(0.0, 0.1, (cfg.seq_len, d)),
    }
    for i in range(cfg.blocks):
        p = f"blocks.{i}."
        params[p + "ln1.g"] = np.ones(d)
        params[p + "ln1.b"] = np.zeros(d)
        for w in ("wq", "wk", "wv", "wo"):
            params[p + "attn." + w] = rng.normal(0.0, 1.0 / math.sqrt(d), (d, d))
        params[p + "ln2.g"] = np.ones(d)
        params[p + "ln2.b"] = np.zeros(d)
        params[p + "mlp.w1"] = rng.normal(0.0, math.sqrt(2.0 / (d + m)), (d, m))
        params[p + "mlp.b1"] = np.zeros(m)
        params[p + "mlp.w2"] = rng.normal(0.0, math.sqrt(2.0 / (d + m)), (m, d))
        params[p + "mlp.b2"] = np.zeros(d)
    return params


def _validate_tokens(cfg: ModelSettings, tokens: np.ndarray) -> np.ndarray:
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[1] != cfg.seq_len:
        raise ValueError(
            f"token batch must be (B, {cfg.seq_len}), got {tokens.shape}"
        )
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise ValueError("out-of-vocabulary token id in batch")
    return tokens


def _attention(cfg: ModelSettings, t: Mapping[str, ad.Tensor], prefix: str, h: ad.Tensor) -> ad.Tensor:
    b, s, d = h.shape
    heads = cfg.heads
    hd = d // heads

    def split(x: ad.Tensor) -> ad.Tensor:
        return ad.transpose(ad.reshape(x, (b, s, heads, hd)), (0, 2, 1, 3))

    q = split(ad.matmul(h, t[prefix + "attn.wq"]))
    k = split(ad.matmul(h, t[prefix + "attn.wk"]))
    v = split(ad.matmul(h, t[prefix + "attn.wv"]))
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(hd))
    ctx = ad.matmul(ad.softmax(scores), v)
    ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, s, d))
    return ad.matmul(ctx, t[prefix + "attn.wo"])


def encode(
    cfg: ModelSettings,
    t: Mapping[str, ad.Tensor],
    tokens: np.ndarray,
    adapt=None,
) -> ad.Tensor:
    """Embed, run the blocks (adapters optionally spliced in), mean-pool.

    ``adapt(path, out)`` maps a sublayer's output Tensor to one of the same
    shape; ``path`` names the sublayer's adapter, ``blocks.{i}.adapter.attn``
    or ``blocks.{i}.adapter.mlp``.
    """
    x = ad.add(ad.embedding(t["embed.tok"], tokens), t["embed.pos"])
    for i in range(cfg.blocks):
        p = f"blocks.{i}."
        h = ad.layer_norm(x, t[p + "ln1.g"], t[p + "ln1.b"])
        out = _attention(cfg, t, p, h)
        if adapt is not None:
            out = adapt(p + "adapter.attn", out)
        x = ad.add(x, out)
        h = ad.layer_norm(x, t[p + "ln2.g"], t[p + "ln2.b"])
        mid = ad.relu(ad.add(ad.matmul(h, t[p + "mlp.w1"]), t[p + "mlp.b1"]))
        out = ad.add(ad.matmul(mid, t[p + "mlp.w2"]), t[p + "mlp.b2"])
        if adapt is not None:
            out = adapt(p + "adapter.mlp", out)
        x = ad.add(x, out)
    return ad.mean_axis(x, 1)


def dense_head_node(
    x: ad.Tensor, w_t: ad.Tensor, b_t: ad.Tensor, groups: int | None = None
) -> ad.Tensor:
    """x @ w + b for a (B, d) input; with ``groups`` each row is a sample."""

    def vjp(g):
        if groups is None:
            dw = x.data.T @ g
        else:
            dw = x.data[:, :, None] * g[:, None, :]
        return g @ w_t.data.T, dw, _row_sum(g, groups)

    return ad.Tensor(x.data @ w_t.data + b_t.data, (x, w_t, b_t), vjp)


class ToyModel:
    """Frozen pretrained backbone + TT adapters + trainable classifier head."""

    def __init__(
        self,
        cfg: ModelSettings,
        num_classes: int,
        backbone: Mapping[str, np.ndarray],
        rng: np.random.Generator,
    ):
        self.cfg = cfg
        self.num_classes = num_classes
        self.backbone = dict(backbone)
        self.adapters: dict[str, TensorizedAdapter] = {}
        for i in range(cfg.blocks):
            for pos in ("attn", "mlp"):
                self.adapters[f"blocks.{i}.adapter.{pos}"] = TensorizedAdapter.create(
                    cfg.d_model,
                    cfg.bottleneck,
                    cfg.tt_rank,
                    rng,
                    bias=cfg.adapter_bias,
                    activation=cfg.activation,
                )
        if cfg.head_mode == "tensorized":
            self.head = TensorizedLinear.create(
                num_classes, cfg.d_model, cfg.tt_rank, rng, bias=True
            )
            self.head_dense: dict[str, np.ndarray] | None = None
        else:
            self.head = None
            self.head_dense = {
                "w": rng.normal(
                    0.0, 1.0 / math.sqrt(cfg.d_model), (cfg.d_model, num_classes)
                ),
                "b": np.zeros(num_classes),
            }
        self._index_params()

    def _index_params(self) -> None:
        self._params: dict[str, np.ndarray] = {}
        # Each adapter map's core names in chain order: what fed's
        # selection rule rotates.
        self.adapter_cores: list[tuple[str, ...]] = []
        for apath, adapter in self.adapters.items():
            for n, arr in adapter.named_params().items():
                self._params[f"{apath}.{n}"] = arr
            for side, layer in (("down", adapter.down), ("up", adapter.up)):
                self.adapter_cores.append(tuple(
                    f"{apath}.{side}.f{j}" for j in range(layer.weight.chain_length)
                ))
        if self.head is not None:
            for j, f in enumerate(self.head.weight.factors):
                self._params[f"head.f{j}"] = f
            self._params["head.bias"] = self.head.bias
        else:
            for key in ("w", "b"):
                self._params[f"head.{key}"] = self.head_dense[key]

    def trainables(self) -> dict[str, np.ndarray]:
        """Live views of the trainable arrays, in stable model order."""
        return dict(self._params)

    def get_trainables(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._params.items()}

    def set_trainables(self, values: Mapping[str, np.ndarray]) -> None:
        if set(values) != set(self._params):
            missing = set(self._params) - set(values)
            extra = set(values) - set(self._params)
            raise ValueError(f"trainable key mismatch: missing={missing} extra={extra}")
        for k, arr in self._params.items():
            np.copyto(arr, values[k])

    def _graph(
        self,
        tokens: np.ndarray,
        trainable=None,
        per_sample: bool = False,
    ):
        """Logits and the trainables' leaf Tensors; ``per_sample`` gives each
        trainable a grad with a leading sample axis.

        A trainable's leaf requires grad iff ``trainable`` is None or names
        it, and the frozen backbone's leaves never do, so the backward stops
        at whatever does not train; with ``trainable`` empty the forward
        records no tape.
        """
        tokens = _validate_tokens(self.cfg, tokens)
        groups = len(tokens) if per_sample else None
        ts: dict[str, ad.Tensor] = {
            k: ad.Tensor(v, requires_grad=False) for k, v in self.backbone.items()
        }
        param_ts = {
            k: ad.Tensor(v, requires_grad=trainable is None or k in trainable)
            for k, v in self._params.items()
        }

        def adapt(path: str, x: ad.Tensor) -> ad.Tensor:
            adapter = self.adapters[path]
            local = {n: param_ts[f"{path}.{n}"] for n in adapter.named_params()}
            b, s, d = x.shape
            flat = ad.reshape(x, (b * s, d))
            return ad.reshape(adapter.node(flat, local, groups), (b, s, d))

        pooled = encode(self.cfg, ts, tokens, adapt)
        if self.head is not None:
            factor_ts = [
                param_ts[f"head.f{j}"] for j in range(self.head.weight.chain_length)
            ]
            logits = tt_linear_node(
                pooled, self.head, factor_ts, param_ts["head.bias"], groups
            )
        else:
            logits = dense_head_node(
                pooled, param_ts["head.w"], param_ts["head.b"], groups
            )
        return logits, param_ts

    def logits(self, tokens: np.ndarray) -> np.ndarray:
        out, _ = self._graph(tokens, ())
        return out.data

    def loss_and_grads(
        self,
        tokens: np.ndarray,
        labels: np.ndarray,
        trainable_names=None,
        per_sample: bool = False,
    ) -> tuple[float | np.ndarray, dict[str, np.ndarray]]:
        """Mean cross-entropy and its gradients for the selected parameters.

        With ``per_sample`` one batched forward and backward gives each
        sample's loss, shape (B,), and each sample's gradients, shape
        (B, *param.shape): samples never mix in the model, so the backward
        is seeded with the unreduced per-row cross-entropy gradient and
        the TT layers keep the sample axis through their last contraction.
        Parameters outside ``trainable_names`` are frozen for this call.
        """
        logits, param_ts = self._graph(tokens, trainable_names, per_sample=per_sample)
        loss = ad.cross_entropy(logits, np.asarray(labels), reduce=not per_sample)
        loss.backward()
        lead = (len(tokens),) if per_sample else ()
        grads = {}
        for n, t in param_ts.items():
            if t.requires_grad:
                grads[n] = np.zeros(lead + t.shape) if t.grad is None else t.grad
        if per_sample:
            return loss.data, grads
        return float(loss.data), grads

    def evaluate(
        self, tokens: np.ndarray, labels: np.ndarray, batch_size: int = 64
    ) -> tuple[float, float]:
        labels = np.asarray(labels)
        losses = []
        correct = 0
        for start in range(0, len(tokens), batch_size):
            tok = tokens[start : start + batch_size]
            lab = labels[start : start + batch_size]
            out = self.logits(tok)
            losses.append(float(ad.cross_entropy(ad.Tensor(out), lab).data) * len(lab))
            correct += int((out.argmax(axis=-1) == lab).sum())
        n = len(tokens)
        return sum(losses) / n, correct / n


def pretrain_backbone(
    cfg: ModelSettings,
    num_classes: int,
    tokens: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Train backbone + throwaway dense readout centrally, return the backbone."""
    params = init_backbone(cfg, rng)
    params["head.w"] = rng.normal(
        0.0, 1.0 / math.sqrt(cfg.d_model), (cfg.d_model, num_classes)
    )
    params["head.b"] = np.zeros(num_classes)
    opt = AdamW(lr=cfg.pretrain_lr)
    batch_size = cfg.pretrain_batch
    labels = np.asarray(labels)
    order = rng.permutation(len(tokens))
    cursor = 0
    for _ in range(cfg.pretrain_steps):
        if cursor + batch_size > len(order):
            order = rng.permutation(len(tokens))
            cursor = 0
        idx = order[cursor : cursor + batch_size]
        cursor += batch_size
        opt.step(params, _pretrain_grads(cfg, params, tokens[idx], labels[idx]))
    return {k: v for k, v in params.items() if not k.startswith("head.")}


def _pretrain_grads(
    cfg: ModelSettings,
    params: Mapping[str, np.ndarray],
    tokens: np.ndarray,
    labels: np.ndarray,
) -> dict[str, np.ndarray]:
    """Every pretraining parameter's gradient on one batch.

    The tape lives only in this call, so it is freed before the optimizer
    step and the next batch's forward: one step's tape is alive at a time.
    """
    ts = {k: ad.Tensor(v) for k, v in params.items()}
    pooled = encode(cfg, ts, _validate_tokens(cfg, tokens))
    logits = ad.add(ad.matmul(pooled, ts["head.w"]), ts["head.b"])
    ad.cross_entropy(logits, labels).backward()
    return {
        k: (ts[k].grad if ts[k].grad is not None else np.zeros_like(v))
        for k, v in params.items()
    }


# The ModelSettings fields pretraining reads; adapter and head settings are
# not among them, so configs differing only there share one backbone.
_BACKBONE_FIELDS = (
    "vocab_size",
    "seq_len",
    "d_model",
    "blocks",
    "heads",
    "mlp_hidden",
    "backbone_seed",
    "pretrain_steps",
    "pretrain_lr",
    "pretrain_batch",
    "pretrain_per_class",
)


def get_pretrained_backbone(cfg: ModelSettings, num_classes: int) -> Mapping[str, np.ndarray]:
    """Backbone shared by every experiment with these settings.

    Seed-pinned: the pretraining corpus and the init both derive from
    ``cfg.backbone_seed`` alone, so runs with different experiment seeds
    reuse one backbone.  The cache is keyed on the backbone's own fields of
    ``cfg`` and ``num_classes``.  Returned arrays are frozen read-only.
    """
    key = ModelSettings(**{f: getattr(cfg, f) for f in _BACKBONE_FIELDS})
    return _pretrained_backbone(key, num_classes)


@lru_cache(maxsize=8)
def _pretrained_backbone(cfg: ModelSettings, num_classes: int) -> Mapping[str, np.ndarray]:
    from .data import generate_corpus

    seed = cfg.backbone_seed
    corpus = generate_corpus(
        num_classes, cfg.pretrain_per_class, cfg.seq_len, cfg.vocab_size, seed
    )
    rng = np.random.default_rng((seed, 1))
    backbone = pretrain_backbone(cfg, num_classes, corpus.tokens, corpus.labels, rng)
    for arr in backbone.values():
        arr.flags.writeable = False
    _trim_heap()
    return backbone


get_pretrained_backbone.cache_info = _pretrained_backbone.cache_info
get_pretrained_backbone.cache_clear = _pretrained_backbone.cache_clear


def _trim_heap() -> None:
    """Give the C heap's free pages back to the OS (glibc's ``malloc_trim``).

    Each pretraining step builds and frees a tape of several MB.  glibc's
    main heap shrinks only from its top, so one small block left live above
    the freed tapes keeps them resident for the rest of the process, and
    whether one is left there changes from run to run with the allocation
    history.  ``malloc_trim`` also releases the free pages below the top.
    Where libc has no ``malloc_trim`` this does nothing.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)
