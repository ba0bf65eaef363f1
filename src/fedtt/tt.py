"""Tensor-train weights: contraction, decomposition, and parameter accounting.

A matrix W of shape (P, Q) is stored as a chain of order-3 cores
G_1 ... G_J, where G_j has shape (r_{j-1}, k_j, r_j), boundary ranks are
r_0 = r_J = 1, and the mode sizes factorize the matrix:
prod(row_dims) = P, prod(col_dims) = Q, dims = row_dims + col_dims.
Entry (p, q) of W is the chain product over the cores indexed by the
mixed-radix digits of p (over row_dims) and q (over col_dims), both
row-major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TTWeight",
    "TensorShapePlan",
    "mode_product",
    "reconstruct",
    "tt_matvec",
    "tt_forward",
    "tt_vjp",
    "tt_svd",
    "param_count",
    "max_ranks",
    "shape_plan_for",
    "full_rank_plan",
    "random_tt",
]


def mode_product(a: np.ndarray, b: np.ndarray, s: int, t: int) -> np.ndarray:
    """Contract axis ``s`` of ``a`` with axis ``t`` of ``b``; axes are 1-based.

    The result is indexed by the remaining axes of ``a`` in order, followed
    by the remaining axes of ``b`` in order.  With matrices and
    ``s=2, t=1`` this is the ordinary matrix product.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if not 1 <= s <= a.ndim:
        raise ValueError(f"axis s={s} out of range for operand of order {a.ndim}")
    if not 1 <= t <= b.ndim:
        raise ValueError(f"axis t={t} out of range for operand of order {b.ndim}")
    if a.shape[s - 1] != b.shape[t - 1]:
        raise ValueError(
            f"contracted axes disagree: shape {a.shape} axis {s} has size "
            f"{a.shape[s - 1]}, shape {b.shape} axis {t} has size {b.shape[t - 1]}"
        )
    return np.tensordot(a, b, axes=(s - 1, t - 1))


def _prod(xs) -> int:
    return int(math.prod(xs))


@dataclass
class TTWeight:
    """A matrix held as a tensor-train chain of order-3 cores."""

    factors: list[np.ndarray]
    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        self.row_dims = tuple(int(d) for d in self.row_dims)
        self.col_dims = tuple(int(d) for d in self.col_dims)
        dims = self.dims
        if len(self.factors) != len(dims):
            raise ValueError(
                f"{len(self.factors)} factors for {len(dims)} mode dims"
            )
        if not self.factors:
            raise ValueError("a TT weight needs at least one factor")
        for j, f in enumerate(self.factors):
            if f.ndim != 3:
                raise ValueError(f"factor {j} has order {f.ndim}, expected 3")
            if f.shape[1] != dims[j]:
                raise ValueError(
                    f"factor {j} mode size {f.shape[1]} != planned dim {dims[j]}"
                )
            if j > 0 and self.factors[j - 1].shape[2] != f.shape[0]:
                raise ValueError(
                    f"rank mismatch between factors {j - 1} and {j}: "
                    f"{self.factors[j - 1].shape} vs {f.shape}"
                )
        if self.factors[0].shape[0] != 1 or self.factors[-1].shape[2] != 1:
            raise ValueError("boundary ranks must both be 1")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.row_dims + self.col_dims

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors) + (1,)

    @property
    def rows(self) -> int:
        return _prod(self.row_dims)

    @property
    def cols(self) -> int:
        return _prod(self.col_dims)

    @property
    def chain_length(self) -> int:
        return len(self.factors)

    def copy(self) -> "TTWeight":
        return TTWeight([f.copy() for f in self.factors], self.row_dims, self.col_dims)


@dataclass(frozen=True)
class TensorShapePlan:
    """Factorization plan for one matrix: mode sizes plus target TT ranks."""

    matrix_rows: int
    matrix_cols: int
    dims: tuple[int, ...]
    ranks: tuple[int, ...]
    warning: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if _prod(self.dims) != self.matrix_rows * self.matrix_cols:
            raise ValueError(
                f"dims {self.dims} do not factorize "
                f"{self.matrix_rows}x{self.matrix_cols}"
            )
        if len(self.ranks) != len(self.dims) + 1:
            raise ValueError("need one rank per chain bond, boundaries included")
        if self.ranks[0] != 1 or self.ranks[-1] != 1:
            raise ValueError("boundary ranks must both be 1")
        if any(r < 1 for r in self.ranks) or any(d < 1 for d in self.dims):
            raise ValueError("dims and ranks must be positive")
        self.row_dims  # noqa: B018 - validates the split exists

    @property
    def row_dims(self) -> tuple[int, ...]:
        prod = 1
        for i, d in enumerate(self.dims):
            if prod == self.matrix_rows:
                return self.dims[:i]
            prod *= d
        if prod == self.matrix_rows:
            return self.dims
        raise ValueError(
            f"no prefix of dims {self.dims} multiplies to {self.matrix_rows} rows"
        )

    @property
    def col_dims(self) -> tuple[int, ...]:
        return self.dims[len(self.row_dims):]

    @property
    def chain_length(self) -> int:
        return len(self.dims)


# Mode-size table for the matrix shapes that show up in transformer adapters
# and classifiers; anything else falls back to the balanced factorizer.
_KNOWN_DIMS: dict[tuple[int, int], tuple[int, ...]] = {
    (768, 64): (8, 8, 12, 8, 8),
    (64, 768): (8, 8, 12, 8, 8),
    (4096, 64): (16, 16, 16, 4, 4, 4),
    (64, 4096): (4, 4, 4, 16, 16, 16),
    (768, 768): (12, 8, 8, 8, 8, 12),
}

_DIM_CAP = 16


def _prime_factors(n: int) -> list[int]:
    out: list[int] = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _balanced_factors(n: int) -> tuple[int, ...]:
    """Split n into near-balanced factors <= 16, minimal count, deterministic."""
    if n == 1:
        return ()
    primes = sorted(_prime_factors(n), reverse=True)
    m = 1
    while _DIM_CAP**m < n:
        m += 1
    buckets = [1] * m
    for p in primes:
        fits = [i for i in range(m) if buckets[i] * p <= _DIM_CAP]
        pool = fits if fits else range(m)
        i = min(pool, key=lambda i: (buckets[i], i))
        buckets[i] *= p
    return tuple(sorted((b for b in buckets if b > 1), reverse=True))


def shape_plan_for(rows: int, cols: int, rank: int) -> TensorShapePlan:
    """Pick mode sizes for a rows x cols matrix and set every interior rank.

    Known transformer shapes come from a fixed table; other sizes are split
    into near-balanced integer factors <= 16 per side.  A prime side larger
    than 64 cannot be split at all and is kept as a single oversized mode,
    flagged via ``warning``.
    """
    if rows < 1 or cols < 1 or rank < 1:
        raise ValueError(f"rows={rows}, cols={cols}, rank={rank} must be positive")
    warning = None
    if (rows, cols) in _KNOWN_DIMS:
        dims = _KNOWN_DIMS[(rows, cols)]
    else:
        row_f = _balanced_factors(rows)
        col_f = _balanced_factors(cols)
        dims = row_f + col_f if row_f or col_f else (1,)
        oversized = [d for d in dims if d > 64]
        if oversized:
            warning = (
                f"prime side too large to factor: mode sizes {oversized} exceed 64"
            )
    j = len(dims)
    ranks = (1,) + (rank,) * (j - 1) + (1,)
    return TensorShapePlan(rows, cols, dims, ranks, warning)


def max_ranks(dims: tuple[int, ...]) -> tuple[int, ...]:
    """Largest attainable TT rank at each bond of a chain with these dims."""
    j = len(dims)
    return tuple(min(_prod(dims[:i]), _prod(dims[i:])) for i in range(j + 1))


def full_rank_plan(rows: int, cols: int) -> TensorShapePlan:
    """A plan whose ranks make tt_svd lossless."""
    base = shape_plan_for(rows, cols, 1)
    return TensorShapePlan(rows, cols, base.dims, max_ranks(base.dims), base.warning)


def param_count(plan: TensorShapePlan) -> int:
    """Total entries across the chain: sum of r_{j-1} * k_j * r_j."""
    return sum(
        plan.ranks[j] * plan.dims[j] * plan.ranks[j + 1]
        for j in range(len(plan.dims))
    )


def tt_svd(m: np.ndarray, plan: TensorShapePlan) -> TTWeight:
    """Decompose a matrix into a TT chain by sequential unfolding and SVD.

    Each unfolding is truncated to the planned rank; a rank the unfolding
    cannot attain is silently clamped, and the clamp shows up in the
    returned weight's ``ranks``.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (plan.matrix_rows, plan.matrix_cols):
        raise ValueError(
            f"matrix shape {m.shape} does not match plan "
            f"{plan.matrix_rows}x{plan.matrix_cols}"
        )
    dims = plan.dims
    j_total = len(dims)
    caps = max_ranks(dims)
    if not np.any(m):
        # Exact-zero input: the canonical decomposition is all-zero cores.
        ranks = [min(plan.ranks[i], caps[i]) for i in range(j_total + 1)]
        factors = [
            np.zeros((ranks[i], dims[i], ranks[i + 1])) for i in range(j_total)
        ]
        return TTWeight(factors, plan.row_dims, plan.col_dims)
    c = m.reshape(dims)
    factors: list[np.ndarray] = []
    r_prev = 1
    for i in range(j_total - 1):
        c = c.reshape(r_prev * dims[i], -1)
        u, s, vt = np.linalg.svd(c, full_matrices=False)
        r = min(plan.ranks[i + 1], u.shape[1])
        factors.append(u[:, :r].reshape(r_prev, dims[i], r))
        c = s[:r, None] * vt[:r]
        r_prev = r
    factors.append(c.reshape(r_prev, dims[-1], 1))
    return TTWeight(factors, plan.row_dims, plan.col_dims)


def _lefts(w: TTWeight) -> list[np.ndarray]:
    # lefts[j]: cores 0..j-1 contracted to (k_0*...*k_{j-1}, r_j); the
    # last entry, (P*Q, 1), is W in row-major order.
    lefts = [np.ones((1, 1))]
    for f in w.factors:
        nxt = lefts[-1] @ f.reshape(f.shape[0], -1)
        lefts.append(nxt.reshape(-1, f.shape[2]))
    return lefts


def reconstruct(w: TTWeight) -> np.ndarray:
    """Contract the chain left to right and fold it to the P x Q matrix."""
    return _lefts(w)[-1].reshape(w.rows, w.cols)


def tt_forward(w: TTWeight, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Batched matrix-vector products y = x W^T.

    ``x`` has shape (B, Q); the result has shape (B, P).  The chain is
    contracted to the dense W once per call, which at adapter sizes costs
    less than sweeping the cores over the batch; the returned cache holds
    the input and the left partial contractions and feeds :func:`tt_vjp`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.cols:
        raise ValueError(f"input shape {x.shape} does not match {w.cols} columns")
    lefts = _lefts(w)
    y = x @ lefts[-1].reshape(w.rows, w.cols).T
    return y, (x, lefts)


def tt_matvec(w: TTWeight, x: np.ndarray) -> np.ndarray:
    """Single matrix-vector product y = W x via the batched path."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (w.cols,):
        raise ValueError(f"input shape {x.shape} does not match {w.cols} columns")
    y, _ = tt_forward(w, x[None, :])
    return y[0]


def tt_vjp(
    w: TTWeight,
    cache: tuple,
    dy: np.ndarray,
    mask: list[bool] | None = None,
    groups: int | None = None,
    input_grad: bool = True,
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Exact gradients of sum(dy * (X W^T)) w.r.t. each core and the input.

    dX = dy W and dW = dy^T X; core j's grad is L_j^T dW R_j^T, with L_j
    the cores left of j (from the cache) and R_j the cores right of it.
    ``mask[j]`` False marks a frozen core: its contraction is skipped and a
    zero array is returned in its slot.  With ``groups`` = G, the B rows
    are G consecutive groups of B/G rows (one group per sample): dW is
    formed per group as a (G, P, Q) stack and every core grad gets a
    leading axis of size G holding each group's own sum, so one call gives
    every per-sample gradient.  Returns (core grads, dX); dX is None when
    ``input_grad`` is False.
    """
    x, lefts = cache
    if mask is None:
        mask = [True] * w.chain_length
    n_groups = 1 if groups is None else groups
    if n_groups < 1 or dy.shape[0] % n_groups:
        raise ValueError(f"{dy.shape[0]} rows do not split into {groups} groups")
    per_group = dy.shape[0] // n_groups
    dx = dy @ lefts[-1].reshape(w.rows, w.cols) if input_grad else None
    dy_g = dy.reshape(n_groups, per_group, w.rows)
    d_w = np.swapaxes(dy_g, 1, 2) @ x.reshape(n_groups, per_group, w.cols)
    d_factors = [np.zeros((n_groups, *f.shape)) for f in w.factors]
    # right: cores j+1..J-1 contracted to (r_{j+1}, k_{j+1}*...*k_{J-1}).
    right = np.ones((1, 1))
    for j in range(w.chain_length - 1, -1, -1):
        f = w.factors[j]
        r0, k, r1 = f.shape
        if mask[j]:
            kl = lefts[j].shape[0]
            t = lefts[j].T @ d_w.reshape(n_groups, kl, k * right.shape[1])
            t = t.reshape(n_groups, r0 * k, right.shape[1]) @ right.T
            d_factors[j] = t.reshape(n_groups, r0, k, r1)
        right = (f.reshape(-1, r1) @ right).reshape(r0, -1)
    if groups is None:
        d_factors = [d[0] for d in d_factors]
    return d_factors, dx


def random_tt(
    plan: TensorShapePlan, rng: np.random.Generator, zero_last: bool = False
) -> TTWeight:
    """Gaussian-initialized chain; core j gets std 1/sqrt(r_{j-1} * k_j).

    With ``zero_last`` the final core is zeroed so the represented matrix is
    exactly zero (adapter up-projections start as the identity map).
    """
    factors = []
    for j, k in enumerate(plan.dims):
        r0, r1 = plan.ranks[j], plan.ranks[j + 1]
        if zero_last and j == len(plan.dims) - 1:
            factors.append(np.zeros((r0, k, r1)))
        else:
            factors.append(rng.normal(0.0, 1.0 / math.sqrt(r0 * k), (r0, k, r1)))
    return TTWeight(factors, plan.row_dims, plan.col_dims)
