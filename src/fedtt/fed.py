"""Federated averaging over tensor-train payloads.

Two algorithms share one round loop:

* ``fedtt``      : every adapter core is trainable and transmitted.
* ``fedtt_plus`` : per round only cores {1, r, J} of each chain are
  unfrozen, with r = (t mod (J-2)) + 2 cycling over the interior; the
  classifier head (and bias terms) stay trainable in every round.  Frozen
  cores keep their last broadcast values and their bytes never enter the
  uplink accounting.

Rounds are 1-based.  Determinism: given one config and seed, the metrics
stream and final parameters are identical regardless of worker count.
"""

from __future__ import annotations

import queue
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .data import Corpus, PartitionSpec, generate_corpus, partition
from .errors import NumericalError
from .nn import AdamW, ModelConfig, ParamMeta, ToyModel, get_pretrained_backbone
from .privacy import DPConfig, dp_batch_gradient, noise_multiplier

if TYPE_CHECKING:  # pragma: no cover
    from .config import RunConfig

__all__ = [
    "BYTES_PER_PARAM",
    "FedConfig",
    "TrainableSelection",
    "ClientState",
    "RoundMetrics",
    "select_trainable",
    "sample_clients",
    "aggregate",
    "local_update",
    "FederatedRunner",
    "run_training",
]

BYTES_PER_PARAM = 4
KB = 1024

ALGORITHMS = ("fedtt", "fedtt_plus")


@dataclass(frozen=True)
class FedConfig:
    num_clients: int = 5
    clients_per_round: int = 0  # 0 resolves to num_clients (cross-silo)
    local_updates: int = 1
    rounds: int = 100
    algorithm: str = "fedtt"
    lr: float = 1e-3
    batch_size: int = 32
    weight_decay: float = 0.0
    workers: int = 1
    reset_frozen_moments: bool = True
    eval_batch: int = 64

    def __post_init__(self) -> None:
        if self.clients_per_round == 0:
            object.__setattr__(self, "clients_per_round", self.num_clients)
        for f in ("num_clients", "clients_per_round", "local_updates", "rounds",
                  "batch_size", "workers", "eval_batch"):
            if getattr(self, f) < 1:
                raise ValueError(f"fed.{f} must be positive")
        if self.clients_per_round > self.num_clients:
            raise ValueError(
                f"fed.clients_per_round ({self.clients_per_round}) exceeds "
                f"fed.num_clients ({self.num_clients})"
            )
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"fed.algorithm must be one of {ALGORITHMS}")
        if self.lr < 0 or self.weight_decay < 0:
            raise ValueError("fed.lr and fed.weight_decay must be non-negative")


@dataclass(frozen=True)
class TrainableSelection:
    """Which parameters train (and travel) in one round."""

    algorithm: str
    round_index: int

    def unfrozen_factors(self, chain_length: int) -> frozenset[int]:
        """1-based core indices unfrozen for a chain of this length."""
        if self.algorithm == "fedtt":
            return frozenset(range(1, chain_length + 1))
        if chain_length < 3:
            raise ValueError(
                f"fedtt_plus needs chains of length >= 3, got {chain_length}"
            )
        r = (self.round_index % (chain_length - 2)) + 2
        return frozenset({1, r, chain_length})

    def trainable_names(self, meta: Mapping[str, ParamMeta]) -> list[str]:
        """Selected parameter names, in model order.

        Only adapter cores rotate; the head and bias terms are always in.
        """
        out = []
        for name, m in meta.items():
            if m.kind == "adapter_factor":
                if m.factor_index + 1 in self.unfrozen_factors(m.chain_length):
                    out.append(name)
            else:
                out.append(name)
        return out


def select_trainable(t: int, chain_length: int, algorithm: str) -> TrainableSelection:
    """Selection for round ``t`` (1-based) over chains of ``chain_length``."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}")
    if t < 1:
        raise ValueError("round index is 1-based")
    sel = TrainableSelection(algorithm, t)
    sel.unfrozen_factors(chain_length)  # validates chain_length for fedtt_plus
    return sel


def sample_clients(num_clients: int, m: int, rng: np.random.Generator) -> list[int]:
    """Uniform sample of m distinct client ids, returned sorted."""
    if not 1 <= m <= num_clients:
        raise ValueError(f"cannot sample {m} of {num_clients} clients")
    return sorted(int(i) for i in rng.choice(num_clients, size=m, replace=False))


def aggregate(param_sets: Sequence[Mapping[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Elementwise mean in fixed client order; structures must match."""
    if not param_sets:
        raise ValueError("nothing to aggregate")
    first = param_sets[0]
    out: dict[str, np.ndarray] = {}
    for i, ps in enumerate(param_sets[1:], start=1):
        if set(ps) != set(first):
            raise ValueError(
                f"client {i} parameter names disagree with client 0: "
                f"{sorted(set(ps) ^ set(first))}"
            )
        for k in first:
            if ps[k].shape != first[k].shape:
                raise ValueError(
                    f"client {i} shape for {k!r}: {ps[k].shape} != {first[k].shape}"
                )
    for k in first:
        acc = first[k].astype(np.float64, copy=True)
        for ps in param_sets[1:]:
            acc += ps[k]
        out[k] = acc / len(param_sets)
    return out


class ClientState:
    """One client's shard, optimizer state, and private RNG streams."""

    def __init__(
        self,
        client_id: int,
        tokens: np.ndarray,
        labels: np.ndarray,
        optimizer: AdamW,
        batch_rng: np.random.Generator,
        dp_rng: np.random.Generator | None = None,
        sigma: float = 0.0,
    ):
        if len(labels) == 0:
            raise ValueError(f"client {client_id} received an empty shard")
        self.client_id = client_id
        self.tokens = tokens
        self.labels = labels
        self.optimizer = optimizer
        self.batch_rng = batch_rng
        self.dp_rng = dp_rng
        self.sigma = sigma
        self.last_unfrozen: set[str] = set()
        self._order = np.empty(0, dtype=np.int64)
        self._cursor = 0

    def next_batch(self, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Next mini-batch from a deterministic reshuffled stream."""
        bs = min(batch_size, len(self.labels))
        if self._cursor + bs > len(self._order):
            self._order = self.batch_rng.permutation(len(self.labels))
            self._cursor = 0
        idx = self._order[self._cursor : self._cursor + bs]
        self._cursor += bs
        return self.tokens[idx], self.labels[idx]


def _flatten_rows(
    grads: Mapping[str, np.ndarray], names: Sequence[str], rows: int
) -> np.ndarray:
    """(rows, P): each row one sample's grads, raveled in ``names`` order."""
    return np.concatenate([grads[n].reshape(rows, -1) for n in names], axis=1)


def _unflatten(
    flat: np.ndarray, names: Sequence[str], shapes: Mapping[str, tuple]
) -> dict[str, np.ndarray]:
    out = {}
    at = 0
    for n in names:
        size = int(np.prod(shapes[n], dtype=np.int64)) if shapes[n] else 1
        out[n] = flat[at : at + size].reshape(shapes[n])
        at += size
    return out


def local_update(
    model: ToyModel,
    client: ClientState,
    global_params: Mapping[str, np.ndarray],
    selection: TrainableSelection,
    fed_cfg: FedConfig,
    dp_cfg: DPConfig | None = None,
) -> tuple[dict[str, np.ndarray], float]:
    """K optimizer steps from the broadcast state; returns (selected params, mean loss).

    Frozen cores are never stepped, so they leave with their broadcast
    values; only the selected parameters are returned for aggregation.
    """
    model.set_trainables(global_params)
    names = selection.trainable_names(model.param_meta())
    if selection.algorithm == "fedtt_plus" and fed_cfg.reset_frozen_moments:
        newly = [n for n in names if n not in client.last_unfrozen]
        client.optimizer.reset(newly)
        client.last_unfrozen = set(names)
    params = model.trainables()
    name_set = set(names)
    losses = []
    for _ in range(fed_cfg.local_updates):
        tok, lab = client.next_batch(fed_cfg.batch_size)
        if dp_cfg is not None and dp_cfg.enabled:
            # One batched pass gives every sample's loss and grads; clipping
            # and noise then act on the (B, P) matrix of per-sample grads.
            step_losses, per_sample = model.loss_and_grads(
                tok, lab, name_set, per_sample=True
            )
            flat = dp_batch_gradient(
                _flatten_rows(per_sample, names, len(lab)),
                dp_cfg.clip, client.sigma, client.dp_rng,
            )
            grads = _unflatten(flat, names, {n: params[n].shape for n in names})
            loss = float(np.mean(step_losses))
        else:
            loss, grads = model.loss_and_grads(tok, lab, name_set)
        if not np.isfinite(loss):
            raise NumericalError(
                f"client {client.client_id}: non-finite training loss"
            )
        client.optimizer.step(params, grads, names)
        losses.append(loss)
    return {n: params[n].copy() for n in names}, float(np.mean(losses))


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    client_ids: tuple[int, ...]
    train_loss: float
    eval_loss: float
    eval_acc: float
    uplink_kb: float  # per participating client this round
    cumulative_kb: float  # running sum over rounds of clients * uplink_kb


def _seed_tree(seed: int, num_clients: int):
    """Stable seed derivation: corpus, partition, server, init, per-client."""
    root = np.random.SeedSequence(seed)
    corpus_ss, part_ss, server_ss, init_ss, clients_root = root.spawn(5)
    client_ss = [ss.spawn(2) for ss in clients_root.spawn(num_clients)]
    return corpus_ss, part_ss, server_ss, init_ss, client_ss


def _split_eval(corpus, per_class: int, eval_per_class: int):
    """Stratified split: first per_class of each label are train, rest eval."""
    train_idx, eval_idx = [], []
    seen = {c: 0 for c in range(corpus.num_classes)}
    for i, lab in enumerate(corpus.labels):
        c = int(lab)
        if seen[c] < per_class:
            train_idx.append(i)
        else:
            eval_idx.append(i)
        seen[c] += 1
    return np.asarray(train_idx), np.asarray(eval_idx)


class FederatedRunner:
    """Owns corpus, backbone, clients, and the server state; steps rounds."""

    def __init__(self, cfg: "RunConfig"):
        self.cfg = cfg
        fc = cfg.fed
        mc = cfg.model.to_model_config(cfg.data.classes)
        corpus_ss, part_ss, server_ss, init_ss, client_ss = _seed_tree(
            cfg.seed, fc.num_clients
        )
        total = cfg.data.per_class + cfg.data.eval_per_class
        full = generate_corpus(
            cfg.data.classes, total, mc.seq_len, mc.vocab_size, corpus_ss
        )
        train_idx, eval_idx = _split_eval(full, cfg.data.per_class, cfg.data.eval_per_class)
        self.train_corpus = Corpus(
            full.tokens[train_idx], full.labels[train_idx],
            full.num_classes, full.vocab_size,
        )
        self.eval_tokens = full.tokens[eval_idx]
        self.eval_labels = full.labels[eval_idx]

        backbone = get_pretrained_backbone(
            mc,
            cfg.model.pretrain_per_class,
            cfg.model.pretrain_steps,
            cfg.model.pretrain_lr,
            cfg.model.pretrain_batch,
            cfg.model.backbone_seed,
        )
        self.template = ToyModel(mc, backbone, np.random.default_rng(init_ss))
        self.server_params = self.template.get_trainables()
        self.adapter_chain = self.template.adapter_chain_length
        select_trainable(1, self.adapter_chain, fc.algorithm)  # fail fast
        if fc.algorithm == "fedtt_plus" and self.adapter_chain == 3:
            warnings.warn(
                "fedtt_plus on 3-core adapter chains trains every core, so it "
                "is the same algorithm as fedtt; a larger model.bottleneck "
                "gives longer chains",
                UserWarning,
                stacklevel=2,
            )

        spec = PartitionSpec(cfg.data.partition, fc.num_clients, cfg.data.proportions)
        shards = partition(self.train_corpus, spec, part_ss)
        self.clients: list[ClientState] = []
        for cid in range(fc.num_clients):
            batch_ss, dp_ss = client_ss[cid]
            shard = shards[cid]
            sigma = 0.0
            if cfg.dp.enabled:
                if cfg.dp.sigma > 0:
                    sigma = cfg.dp.sigma
                else:
                    q = min(1.0, fc.batch_size / len(shard))
                    sigma = noise_multiplier(
                        cfg.dp.epsilon, cfg.dp.delta, q,
                        fc.local_updates * fc.rounds, cfg.dp.c0,
                    )
            self.clients.append(
                ClientState(
                    cid,
                    self.train_corpus.tokens[shard],
                    self.train_corpus.labels[shard],
                    AdamW(lr=fc.lr, weight_decay=fc.weight_decay),
                    np.random.default_rng(batch_ss),
                    np.random.default_rng(dp_ss),
                    sigma,
                )
            )
        # A model holds no state but its trainable values, which local_update
        # overwrites, so one model per worker thread serves every client.
        self.models = [
            ToyModel(mc, backbone, np.random.default_rng(init_ss))
            for _ in range(min(fc.workers, fc.clients_per_round))
        ]
        self.server_rng = np.random.default_rng(server_ss)
        self.round = 0
        self.cumulative_kb = 0.0

    def run_round(self) -> RoundMetrics:
        fc = self.cfg.fed
        self.round += 1
        t = self.round
        selection = select_trainable(t, self.adapter_chain, fc.algorithm)
        if fc.clients_per_round < fc.num_clients:
            ids = sample_clients(fc.num_clients, fc.clients_per_round, self.server_rng)
        else:
            ids = list(range(fc.num_clients))

        free: queue.SimpleQueue[ToyModel] = queue.SimpleQueue()
        for model in self.models:
            free.put(model)

        def work(cid: int):
            model = free.get()
            try:
                return local_update(
                    model, self.clients[cid], self.server_params,
                    selection, fc, self.cfg.dp,
                )
            finally:
                free.put(model)

        try:
            if fc.workers > 1 and len(ids) > 1:
                with ThreadPoolExecutor(max_workers=fc.workers) as pool:
                    results = list(pool.map(work, ids))
            else:
                results = [work(cid) for cid in ids]
        except NumericalError as e:
            raise NumericalError(f"round {t}: {e}") from e

        new_params = aggregate([r[0] for r in results])
        self.server_params.update(new_params)
        train_loss = float(np.mean([r[1] for r in results]))

        self.template.set_trainables(self.server_params)
        eval_loss, eval_acc = self.template.evaluate(
            self.eval_tokens, self.eval_labels, fc.eval_batch
        )
        if not (np.isfinite(train_loss) and np.isfinite(eval_loss)):
            raise NumericalError(f"round {t}: non-finite loss")

        meta = self.template.param_meta()
        uplink_params = sum(meta[n].size for n in new_params)
        uplink_kb = uplink_params * BYTES_PER_PARAM / KB
        self.cumulative_kb += len(ids) * uplink_kb
        return RoundMetrics(
            t, tuple(ids), train_loss, eval_loss, eval_acc, uplink_kb,
            self.cumulative_kb,
        )

    def run(self) -> list[RoundMetrics]:
        return [self.run_round() for _ in range(self.cfg.fed.rounds)]


def run_training(cfg: "RunConfig") -> tuple[list[RoundMetrics], dict[str, np.ndarray]]:
    """Full run: returns the per-round metrics and the final global trainables."""
    runner = FederatedRunner(cfg)
    metrics = runner.run()
    final = {k: v.copy() for k, v in runner.server_params.items()}
    return metrics, final
