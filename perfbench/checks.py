"""Output checks that do not trust the program's own arithmetic.

Everything here is written against the model's and the protocol's
definitions, not against ``fedtt``'s code paths: TT chains are contracted
with plain einsum, the forward pass is dense numpy, the mean of the client
payloads is a stacked mean, and the uplink follows the paper's selection
rule from tensor names and shapes.  Each check returns a list of problems;
an empty list means it passed.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Sequence

import numpy as np

BYTES_PER_VALUE = 4  # uplink is counted in float32 values
_ADAPTER_CORE = re.compile(r"(blocks\.\d+\.adapter\.\w+\.(?:down|up))\.f(\d+)")
_HEAD_CORE = re.compile(r"(head)\.f(\d+)")


def tt_dense(cores: Sequence[np.ndarray], rows: int) -> np.ndarray:
    """Contract a chain of (r, k, r') cores into its (rows, cols) matrix.

    The chain's mode axes are row modes first, then column modes, both
    row-major, so the contracted tensor folds straight into the matrix.
    """
    t = np.asarray(cores[0], dtype=np.result_type(cores[0], np.float64))
    for g in cores[1:]:
        t = np.einsum("...a,akb->...kb", t, g)
    t = t.reshape(t.shape[1:-1])  # drop the unit boundary ranks
    return t.reshape(rows, -1)


def tt_chains(names) -> dict[str, list[str]]:
    """TT layer prefix -> its core names in chain order."""
    chains: dict[str, list[tuple[int, str]]] = {}
    for n in names:
        m = _ADAPTER_CORE.fullmatch(n) or _HEAD_CORE.fullmatch(n)
        if m:
            chains.setdefault(m[1], []).append((int(m[2]), n))
    return {k: [n for _, n in sorted(v)] for k, v in chains.items()}


def chain_rows(prefix: str, d_model: int, bottleneck: int, classes: int) -> int:
    """Output width of a TT layer: down maps to the bottleneck, up back to d_model."""
    if prefix == "head":
        return classes
    return bottleneck if prefix.endswith(".down") else d_model


# ---------------------------------------------------------------- dense model


# The dense model is written so that it also runs on complex arrays: every
# step is analytic in the trainables, and the ReLU and the max-shifts read
# the real part only.  ``check_gradient`` differentiates it by complex step.


def _relu(x: np.ndarray) -> np.ndarray:
    return np.where(x.real > 0, x, 0.0)


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return g * (x - mu) / np.sqrt(var + 1e-5) + b


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.real.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def dense_logits(model, classes: int, backbone: Mapping[str, np.ndarray],
                 trainables: Mapping[str, np.ndarray], tokens: np.ndarray) -> np.ndarray:
    """Logits of the fine-tuned model with every TT chain made dense.

    ``model`` is a ``ModelSettings``; only the ReLU activation and the
    tensorized head, which every workload uses, are implemented.
    """
    if model.activation != "relu" or model.head_mode != "tensorized":
        raise ValueError("dense reference covers relu adapters and a TT head only")
    d, heads = model.d_model, model.heads
    p = {k: np.asarray(v, dtype=np.result_type(v, np.float64))
         for k, v in trainables.items()}
    chains = tt_chains(p)

    def affine(prefix: str, x: np.ndarray) -> np.ndarray:
        w = tt_dense([p[n] for n in chains[prefix]],
                     chain_rows(prefix, d, model.bottleneck, classes))
        bias = p.get(prefix + ".bias")
        return x @ w.T + (0.0 if bias is None else bias)

    def adapter(prefix: str, h: np.ndarray) -> np.ndarray:
        return h + affine(prefix + ".up", _relu(affine(prefix + ".down", h)))

    bb = backbone
    x = bb["embed.tok"][tokens] + bb["embed.pos"]
    b, s, _ = x.shape
    hd = d // heads
    for i in range(model.blocks):
        pre = f"blocks.{i}."
        h = _layer_norm(x, bb[pre + "ln1.g"], bb[pre + "ln1.b"])
        q, k, v = (
            (h @ bb[pre + "attn." + w]).reshape(b, s, heads, hd).transpose(0, 2, 1, 3)
            for w in ("wq", "wk", "wv")
        )
        att = _softmax(q @ k.transpose(0, 1, 3, 2) / math.sqrt(hd)) @ v
        out = att.transpose(0, 2, 1, 3).reshape(b, s, d) @ bb[pre + "attn.wo"]
        x = x + adapter(pre + "adapter.attn", out)
        h = _layer_norm(x, bb[pre + "ln2.g"], bb[pre + "ln2.b"])
        mid = _relu(h @ bb[pre + "mlp.w1"] + bb[pre + "mlp.b1"])
        out = mid @ bb[pre + "mlp.w2"] + bb[pre + "mlp.b2"]
        x = x + adapter(pre + "adapter.mlp", out)
    return affine("head", x.mean(axis=1))


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy; analytic, so it also runs on complex logits."""
    z = logits - logits.real.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    return (lse - z[np.arange(len(labels)), labels]).mean()


def loss_acc_margin(logits: np.ndarray, labels: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Mean cross-entropy, accuracy, and each sample's top-two logit gap."""
    loss = float(cross_entropy(logits, labels))
    acc = float((logits.argmax(axis=-1) == labels).mean())
    top2 = np.sort(logits, axis=-1)[:, -2:]
    return loss, acc, top2[:, 1] - top2[:, 0]


def check_eval(reported_loss: float, reported_acc: float, logits: np.ndarray,
               labels: np.ndarray, loss_rtol: float, tie_margin: float) -> list[str]:
    """Reported eval loss/accuracy against a recomputation from logits.

    Predictions may differ only on samples whose top two logits lie within
    ``tie_margin``, where the rounding of either side can flip the argmax.
    """
    loss, acc, margin = loss_acc_margin(logits, labels)
    problems = []
    if not abs(loss - reported_loss) <= loss_rtol * abs(loss):
        problems.append(f"eval_loss {reported_loss!r} != recomputed {loss!r}")
    allowed = int((margin < tie_margin).sum()) / len(labels)
    if not abs(acc - reported_acc) <= allowed:
        problems.append(f"eval_acc {reported_acc!r} != recomputed {acc!r}")
    return problems


# ---------------------------------------------------------------- protocol


def trained_cores(chain_length: int, algorithm: str, t: int) -> set[int]:
    """1-based cores a round trains: all for fedtt, {1, r, J} for fedtt_plus."""
    if algorithm == "fedtt":
        return set(range(1, chain_length + 1))
    r = t % (chain_length - 2) + 2
    return {1, r, chain_length}


def frozen_names(names, algorithm: str, t: int) -> set[str]:
    # Only adapter cores rotate; the head, its bias and adapter biases always train.
    frozen = set()
    for prefix, cores in tt_chains(names).items():
        if prefix == "head":
            continue
        keep = trained_cores(len(cores), algorithm, t)
        frozen |= {n for j, n in enumerate(cores, start=1) if j not in keep}
    return frozen


def expected_uplink_kb(shapes: Mapping[str, tuple], algorithm: str, t: int) -> float:
    """Per-client uplink of round ``t`` from the selection rule and the shapes."""
    frozen = frozen_names(shapes, algorithm, t)
    values = sum(math.prod(s) for n, s in shapes.items() if n not in frozen)
    return values * BYTES_PER_VALUE / 1024


def check_uplink(reported_kb: float, shapes: Mapping[str, tuple], algorithm: str,
                 t: int) -> list[str]:
    want = expected_uplink_kb(shapes, algorithm, t)
    if reported_kb != want:
        return [f"round {t}: uplink_kb {reported_kb!r}, rule gives {want!r}"]
    return []


def check_frozen(before: Mapping[str, np.ndarray], after: Mapping[str, np.ndarray],
                 algorithm: str, t: int) -> list[str]:
    """Cores that round ``t`` freezes must leave the server state bit for bit."""
    return [
        f"round {t}: frozen core {n} changed"
        for n in sorted(frozen_names(before, algorithm, t))
        if before[n].tobytes() != after[n].tobytes()
    ]


def check_trained_changed(before: Mapping[str, np.ndarray], after: Mapping[str, np.ndarray],
                          algorithm: str, t: int) -> list[str]:
    """Every parameter that round ``t`` trains must move on the server by
    more than rounding (1e-12 of its norm).

    Round 1 is exempt: each up map starts with a zero core, so in round 1
    the other cores of that chain and the down-map biases get a zero
    gradient, and averaging moves them by rounding at most.
    """
    if t == 1:
        return []
    frozen = frozen_names(before, algorithm, t)
    return [
        f"round {t}: trained parameter {n} did not move"
        for n in sorted(set(before) - frozen)
        if not np.linalg.norm(after[n] - before[n]) > 1e-12 * np.linalg.norm(before[n])
    ]


def check_gradient(loss_of, params: Mapping[str, np.ndarray], trained: set[str],
                   reported_loss: float, grads: Mapping[str, np.ndarray],
                   rng: np.random.Generator, rtol: float = 1e-9) -> list[str]:
    """The program's loss and gradients against the dense reference.

    ``loss_of(params)`` is the reference loss, analytic in the trainables.
    Each trained parameter's gradient is checked along a random unit
    direction against the complex-step derivative Im L(p + ihv) / h, which
    has no step error and never crosses a ReLU kink, to ``rtol`` times the
    gradient's norm.  Frozen parameters must get no gradient.
    """
    problems = []
    if set(grads) != trained:
        problems.append(f"gradient names differ from the trained set: "
                        f"{sorted(set(grads) ^ trained)}")
    want = float(loss_of(params).real)
    if not abs(reported_loss - want) <= 1e-12 * abs(want):
        problems.append(f"training loss {reported_loss!r} != recomputed {want!r}")
    h = 1e-30
    for n in sorted(trained & set(grads)):
        v = rng.normal(size=params[n].shape)
        v /= np.linalg.norm(v)
        gv = float(np.sum(grads[n] * v))
        cs = float(loss_of({**params, n: params[n] + 1j * h * v}).imag) / h
        if not abs(cs - gv) <= rtol * float(np.linalg.norm(grads[n])) + 1e-300:
            problems.append(f"gradient of {n}: along a random direction {gv!r}, "
                            f"complex step {cs!r}")
    return problems


def stacked_mean(payloads: Sequence[Mapping[str, np.ndarray]]) -> dict[str, np.ndarray]:
    return {k: np.stack([p[k] for p in payloads]).mean(axis=0) for k in payloads[0]}


def check_aggregate(payloads: Sequence[Mapping[str, np.ndarray]],
                    result: Mapping[str, np.ndarray], rtol: float = 1e-12) -> list[str]:
    """``aggregate``'s output against a stacked mean of the same payloads."""
    want = stacked_mean(payloads)
    if set(want) != set(result):
        return [f"aggregate names differ: {sorted(set(want) ^ set(result))}"]
    return [
        f"aggregate {k}: relative error {err:.3g} > {rtol:g}"
        for k in want
        if (err := float(np.linalg.norm(result[k] - want[k]))
            / max(float(np.linalg.norm(want[k])), 1e-300)) > rtol
    ]


def check_clip(norms: Sequence[float], clip_norm: float) -> list[str]:
    """Every clipped per-sample gradient lies inside the clip ball."""
    worst = max(norms, default=0.0)
    if worst > clip_norm * (1 + 1e-12):
        return [f"clipped norm {worst!r} exceeds clip {clip_norm!r}"]
    return []


def check_learns(eval_losses: Sequence[float]) -> list[str]:
    if not eval_losses[-1] < eval_losses[0]:
        return [f"final eval_loss {eval_losses[-1]!r} is not below round 1's "
                f"{eval_losses[0]!r}"]
    return []


def drift(before: Mapping[str, np.ndarray],
          payloads: Sequence[Mapping[str, np.ndarray]],
          rows_of) -> float:
    """Worst TT layer's factor-averaging error relative to the round's step.

    ||W(mean cores) - mean_c W(cores_c)|| / ||mean_c W(cores_c) - W(server)||,
    where a client's cores are its payload's, or the broadcast ones for a
    core it did not train.  ``rows_of(prefix)`` gives each layer's width.
    """
    mean = stacked_mean(payloads)
    worst = 0.0
    for prefix, names in tt_chains(before).items():
        rows = rows_of(prefix)

        def dense(src):
            return tt_dense([src.get(n, before[n]) for n in names], rows)

        w_server = dense(before)
        w_clients = np.mean([dense(p) for p in payloads], axis=0)
        step = float(np.linalg.norm(w_clients - w_server))
        if step > 0.0:
            err = float(np.linalg.norm(dense(mean) - w_clients))
            worst = max(worst, err / step)
    return worst
