"""Synthetic token corpora and client partitioning.

Each class gets its own first-order token transition table, so sequences
carry class signal in both their unigram and bigram statistics; a small
encoder separates the classes easily.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Corpus", "PartitionSpec", "generate_corpus", "partition", "proportion_counts"]

PARTITION_MODES = ("iid", "proportions", "sorted_shards")


@dataclass(frozen=True, eq=False)
class Corpus:
    tokens: np.ndarray  # (n, seq_len) int64
    labels: np.ndarray  # (n,) int64
    num_classes: int
    vocab_size: int

    def __len__(self) -> int:
        return len(self.labels)


def generate_corpus(
    num_classes: int,
    per_class: int,
    seq_len: int,
    vocab_size: int,
    seed: int,
) -> Corpus:
    """Sample ``per_class`` sequences from each class's Markov chain."""
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if per_class < 1 or seq_len < 1 or vocab_size < 2:
        raise ValueError("per_class, seq_len positive and vocab_size >= 2 required")
    rng = np.random.default_rng(seed)
    all_tokens = []
    all_labels = []
    alpha = np.full(vocab_size, 0.5)
    for c in range(num_classes):
        start = rng.dirichlet(alpha)
        trans = rng.dirichlet(alpha, size=vocab_size)
        tok = np.empty((per_class, seq_len), dtype=np.int64)
        tok[:, 0] = rng.choice(vocab_size, size=per_class, p=start)
        for s in range(1, seq_len):
            prev = tok[:, s - 1]
            for v in np.unique(prev):
                rows = prev == v
                tok[rows, s] = rng.choice(vocab_size, size=int(rows.sum()), p=trans[v])
        all_tokens.append(tok)
        all_labels.append(np.full(per_class, c, dtype=np.int64))
    tokens = np.concatenate(all_tokens)
    labels = np.concatenate(all_labels)
    order = rng.permutation(len(labels))
    return Corpus(tokens[order], labels[order], num_classes, vocab_size)


@dataclass(frozen=True)
class PartitionSpec:
    """How to split a corpus across clients."""

    mode: str
    num_clients: int
    proportions: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.mode not in PARTITION_MODES:
            raise ValueError(f"unknown partition mode {self.mode!r}")
        if self.num_clients < 1:
            raise ValueError("num_clients must be positive")
        if self.mode == "proportions":
            if not self.proportions:
                raise ValueError("proportions mode needs a per-client matrix")
            if len(self.proportions) != self.num_clients:
                raise ValueError(
                    f"{len(self.proportions)} proportion rows for "
                    f"{self.num_clients} clients"
                )
            for i, row in enumerate(self.proportions):
                if any(p < 0 for p in row):
                    raise ValueError(f"negative proportion in row {i}")
                if not abs(sum(row) - 1.0) <= 1e-9:  # a NaN weight fails too
                    raise ValueError(f"proportion row {i} sums to {sum(row)}, not 1")
        elif self.proportions is not None:
            raise ValueError(f"proportions are only valid in proportions mode")


def _even_sizes(n: int, parts: int) -> list[int]:
    # Equal shard sizes, remainder round-robin to the lowest client ids.
    base, extra = divmod(n, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _largest_remainder(total: int, weights) -> list[int]:
    exact = [total * w for w in weights]
    counts = [int(x) for x in exact]
    short = total - sum(counts)
    remainders = sorted(
        range(len(weights)), key=lambda i: (-(exact[i] - counts[i]), i)
    )
    for i in remainders[:short]:
        counts[i] += 1
    return counts


def proportion_counts(n: int, proportions) -> list[list[int]]:
    """How many examples of each class each client takes when ``n``
    examples are split by ``proportions`` rows: equal shard sizes, each
    apportioned over the classes by largest remainder."""
    sizes = _even_sizes(n, len(proportions))
    return [_largest_remainder(size, row) for size, row in zip(sizes, proportions)]


def partition(
    corpus: Corpus, spec: PartitionSpec, seed: int
) -> list[np.ndarray]:
    """Split corpus row indices into disjoint per-client shards."""
    n = len(corpus)
    if spec.num_clients > n:
        raise ValueError(f"{spec.num_clients} clients for only {n} examples")
    rng = np.random.default_rng(seed)
    sizes = _even_sizes(n, spec.num_clients)

    if spec.mode == "iid":
        order = rng.permutation(n)
        return _cut(order, sizes)

    if spec.mode == "sorted_shards":
        order = np.argsort(corpus.labels, kind="stable")
        return _cut(order, sizes)

    # proportions
    for i, row in enumerate(spec.proportions):
        if len(row) != corpus.num_classes:
            raise ValueError(
                f"proportion row {i} has {len(row)} entries for "
                f"{corpus.num_classes} classes"
            )
    pools = []
    for c in range(corpus.num_classes):
        pool = np.flatnonzero(corpus.labels == c)
        pools.append(list(rng.permutation(pool)))
    shards = []
    for i, want in enumerate(proportion_counts(n, spec.proportions)):
        shard = []
        for c, k in enumerate(want):
            if len(pools[c]) < k:
                raise ValueError(
                    f"client {i} wants {k} examples of class {c}, "
                    f"only {len(pools[c])} remain"
                )
            shard.extend(pools[c][:k])
            del pools[c][:k]
        shards.append(np.asarray(shard, dtype=np.int64))
    return shards


def _cut(order: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    shards = []
    at = 0
    for s in sizes:
        shards.append(np.asarray(order[at : at + s], dtype=np.int64))
        at += s
    return shards
