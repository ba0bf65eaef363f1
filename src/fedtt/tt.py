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
from functools import reduce

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


def reconstruct(w: TTWeight) -> np.ndarray:
    """Contract the chain with repeated mode products and fold back to P x Q."""
    t = reduce(lambda acc, g: mode_product(acc, g, acc.ndim, 1), w.factors)
    if t.shape[0] != 1 or t.shape[-1] != 1:
        raise ValueError("chain did not close on unit boundary ranks")
    return t.reshape(w.rows, w.cols)


def _right_states(w: TTWeight, xr: np.ndarray) -> list[np.ndarray]:
    # states[i] is the partial contraction before absorbing factor J-1-i;
    # the last entry has shape (B, r_a).
    a = len(w.row_dims)
    states = [xr[..., None]]
    for j in range(w.chain_length - 1, a - 1, -1):
        c = states[-1]
        states.append(
            np.tensordot(c, w.factors[j], axes=([c.ndim - 2, c.ndim - 1], [1, 2]))
        )
    return states


def _left_partials(w: TTWeight) -> list[np.ndarray]:
    # lefts[j]: factors 0..j-1 contracted, flattened to (k_0*...*k_{j-1}, r_j).
    lefts = [np.ones((1, 1))]
    for j in range(len(w.row_dims)):
        nxt = np.tensordot(lefts[-1], w.factors[j], axes=([1], [0]))
        lefts.append(nxt.reshape(-1, w.factors[j].shape[2]))
    return lefts


def tt_forward(w: TTWeight, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Batched matrix-vector products y = W x without forming W.

    ``x`` has shape (B, Q); the result has shape (B, P).  The returned cache
    feeds :func:`tt_vjp`.  Column modes are absorbed right-to-left into the
    input, then the row modes are swept left-to-right; the largest
    intermediate is (P, r); the dense P x Q matrix never exists.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.cols:
        raise ValueError(f"input shape {x.shape} does not match {w.cols} columns")
    b = x.shape[0]
    xr = x.reshape((b, *w.col_dims))
    states = _right_states(w, xr)
    lefts = _left_partials(w)
    y = states[-1] @ lefts[-1].T
    return y, (states, lefts)


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
) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact gradients of sum(dy * (X W^T)) w.r.t. each core and the input.

    ``mask[j]`` False marks a frozen core: its contraction is skipped and a
    zero array is returned in its slot.  With ``groups`` = G, the B rows
    are G consecutive groups of B/G rows (one group per sample) and every
    core grad gets a leading axis of size G holding each group's own sum;
    the sample axis survives until the last contraction over rows, so one
    call gives every per-sample gradient.  Returns (core grads, dX).
    """
    states, lefts = cache
    a = len(w.row_dims)
    j_total = w.chain_length
    ranks = w.ranks
    if mask is None:
        mask = [True] * j_total
    n_groups = 1 if groups is None else groups
    if n_groups < 1 or dy.shape[0] % n_groups:
        raise ValueError(f"{dy.shape[0]} rows do not split into {groups} groups")
    per_group = dy.shape[0] // n_groups
    cr = states[-1]
    left = lefts[-1]
    d_cr = dy @ left
    # Frozen cores keep their zeros; every trained slot is filled below.
    d_factors = [
        None if keep else np.zeros((n_groups, *f.shape))
        for f, keep in zip(w.factors, mask)
    ]

    if a:
        # (G, P, r_a): the row contraction of dy^T cr, kept apart per group.
        r_a = ranks[a]
        dy_g = dy.reshape(n_groups, per_group, -1)
        d_left = np.swapaxes(dy_g, 1, 2) @ cr.reshape(n_groups, per_group, r_a)
        # Right partials of the row chain: rrows[j] holds factors j..a-1
        # contracted to (r_j, k_j*...*k_{a-1}, r_a).
        rrows: list[np.ndarray] = [np.zeros(0)] * (a + 1)
        rrows[a] = np.eye(r_a)[:, None, :]
        for j in range(a - 1, -1, -1):
            nxt = np.tensordot(w.factors[j], rrows[j + 1], axes=([2], [0]))
            rrows[j] = nxt.reshape(ranks[j], -1, r_a)
        for j in range(a):
            if not mask[j]:
                continue
            kl = lefts[j].shape[0]
            kr = rrows[j + 1].shape[1]
            dl = d_left.reshape(n_groups, kl, w.dims[j], kr, r_a)
            t = np.tensordot(lefts[j], dl, axes=([0], [1]))
            d = np.tensordot(t, rrows[j + 1], axes=([3, 4], [1, 2]))
            d_factors[j] = np.moveaxis(d, 1, 0)

    d_state = d_cr
    for j in range(a, j_total):
        n = d_state.ndim
        if mask[j]:
            # Contract the rows of each group and the absorbed column modes.
            r_j = d_state.shape[-1]
            lhs = d_state.reshape(n_groups, -1, r_j)
            rhs = states[j_total - 1 - j].reshape(n_groups, lhs.shape[1], -1)
            d = np.swapaxes(lhs, 1, 2) @ rhs
            d_factors[j] = d.reshape(n_groups, *w.factors[j].shape)
        d_state = np.tensordot(d_state, w.factors[j], axes=([n - 1], [0]))
    dx = d_state.reshape(dy.shape[0], w.cols)
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
