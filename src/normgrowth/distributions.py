"""Probability distributions on a group, convolution, and mixing bounds."""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Optional

import numpy as np

from . import spectral
from .chartable import min_nontrivial_degree
from .context import GroupContext
from .errors import CapExceeded, EmptySubset, InvalidWeights
from .growth import _recounted_sizes, product_sizes
from .permgroup import FiniteGroup
from .reports import CheckResult, ReportDocument
from .spectral import _spread, convolve_rows, deflated_lambda
from .subsets import SubsetLike, random_subset, subset_mask
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True)
class Distribution:
    """Probability weights indexed by element index, summing to 1 within `tol.dist_unit`."""

    weights: np.ndarray
    tol: InitVar[Tolerances] = DEFAULT

    def __post_init__(self, tol: Tolerances):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise InvalidWeights("weights must be a nonempty vector")
        # NaN compares False both ways, so it would pass the two checks below
        if not np.isfinite(w).all():
            raise InvalidWeights("non-finite weight")
        if w.min() < 0.0:
            raise InvalidWeights("negative weight")
        if abs(w.sum() - 1.0) > tol.dist_unit:
            raise InvalidWeights(f"weights sum to {w.sum()!r}, not 1")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights)


def uniform(n: int) -> Distribution:
    if n < 1:
        raise ValueError("n must be positive")
    return Distribution(np.full(n, 1.0 / n))


def from_subset(b: SubsetLike, tol: Tolerances = DEFAULT) -> Distribution:
    """Uniform on B, zero elsewhere."""
    mask = subset_mask(b)
    size = int(mask.sum())
    if size == 0:
        raise EmptySubset("cannot build a distribution on the empty set")
    w = np.zeros(mask.size)
    w[mask] = 1.0 / size
    return Distribution(w, tol)


def convolve(group: FiniteGroup, x: Distribution, y: Distribution, tol: Tolerances) -> Distribution:
    """(X*Y)(h) = sum over g of X(g) Y(g^-1 h), exact to float accumulation."""
    n = group.n
    if x.n != n or y.n != n:
        raise ValueError("distribution length does not match the group order")
    return Distribution(convolve_rows(group, x.weights, y.weights), tol)


def l2_dist_uniform(x: Distribution) -> float:
    return float(np.sqrt(((x.weights - 1.0 / x.n) ** 2).sum()))


def check_bnp_star(
    group: FiniteGroup,
    m: int,
    x: Distribution,
    y: Distribution,
    inputs: str = "",
    tol: Tolerances = DEFAULT,
    seed: Optional[int] = None,
) -> CheckResult:
    """Convolution contraction: ||X*Y - U|| <= sqrt(n/m) ||X - U|| ||Y - U||."""
    n = group.n
    lhs = l2_dist_uniform(convolve(group, x, y, tol))
    rhs = math.sqrt(n / m) * l2_dist_uniform(x) * l2_dist_uniform(y)
    return CheckResult.bound("bnp", group.label, n, inputs, lhs, rhs, tol.slack, seed=seed)


def weighted_cayley_lambda(group: FiniteGroup, y: Distribution) -> float:
    """Expansion of the weighted walk M[x, h] = Y(x^-1 h).

    The second singular value of M, from the blocks of `deflated_lambda`.
    """
    n = group.n
    if y.n != n:
        raise ValueError("distribution length does not match the group order")
    if n > spectral.DENSE_CAP:
        raise CapExceeded(
            f"order {n} exceeds the dense eigensolver cap {spectral.DENSE_CAP}"
        )
    return deflated_lambda(group, y.weights)


def _bnp2step_record(
    group: FiniteGroup,
    m: int,
    a_size: int,
    b_size: int,
    ab: int,
    inputs: str,
    seed: Optional[int] = None,
) -> CheckResult:
    """The bnp2step record of |AB|, first inequality strict.

    |AB| > n / (1 + n^2/(m |A| |B|)) and |AB| >= min(n/2, m |A| |B| / (2n)).
    With x = m |A| |B| / n^2 the first bound is n x/(1 + x) >= n min(1, x)/2,
    the second, so one strict comparison against the larger decides both.
    """
    n = group.n
    strict = n / (1.0 + n * n / (m * a_size * b_size))
    weak = min(n / 2.0, m * a_size * b_size / (2.0 * n))
    return CheckResult.bound(
        "bnp2step", group.label, n, inputs, ab, max(strict, weak), op=">", seed=seed
    )


def random_distribution(n: int, rng: np.random.Generator, tol: Tolerances) -> Distribution:
    """Normalized i.i.d. uniform weights."""
    w = rng.random(n)
    return Distribution(w / w.sum(), tol)


def random_sparse_distribution(n: int, rng: np.random.Generator, tol: Tolerances) -> Distribution:
    """Uniform on a random nonempty subset."""
    return from_subset(random_subset(n, rng), tol)


# -- sweeps ---------------------------------------------------------------------


def sweep_bnp_star(
    ctx: GroupContext, trials: Optional[int] = None, seed: int = 0
) -> ReportDocument:
    """Seeded random (X, Y) pairs, alternating dense and sparse shapes.

    `trials` pairs, 1000 by default.
    """
    group, tol = ctx.group, ctx.tol
    trials = 1000 if trials is None else trials
    rng = np.random.default_rng(seed)
    m = min_nontrivial_degree(ctx.table)
    records = []
    for t in range(trials):
        if t % 2 == 0:
            x = random_distribution(group.n, rng, tol)
            y = random_distribution(group.n, rng, tol)
            shape = "dense"
        else:
            x = random_sparse_distribution(group.n, rng, tol)
            y = random_sparse_distribution(group.n, rng, tol)
            shape = "sparse"
        records.append(
            check_bnp_star(
                group, m, x, y, inputs=f"trial={t};shape={shape};seed={seed}", tol=tol, seed=seed
            )
        )
    return ReportDocument(
        title=f"dist bnp {group.label}",
        results=records,
        meta={"m": m, "trials": trials, "seed": seed},
    )


def sweep_bnp_two_step(
    ctx: GroupContext, trials: Optional[int] = None, seed: int = 0
) -> ReportDocument:
    """The bnp2step bound on seeded random pairs of element sets.

    `trials` pairs, 500 by default.
    """
    group = ctx.group
    trials = 500 if trials is None else trials
    rng = np.random.default_rng(seed)
    m = min_nontrivial_degree(ctx.table)
    chosen = [
        (random_subset(group.n, rng), random_subset(group.n, rng)) for _ in range(trials)
    ]
    sizes = [int(product_sizes(group, a, b.mask)) for a, b in chosen]
    _recounted_sizes(group, {t: chosen[t] for t in _spread(len(chosen))}, sizes)
    records = []
    for t, ((a, b), ab) in enumerate(zip(chosen, sizes)):
        inputs = f"trial={t};seed={seed};|A|={a.size};|B|={b.size}"
        records.append(_bnp2step_record(group, m, a.size, b.size, ab, inputs, seed))
    return ReportDocument(
        title=f"dist bnp2step {group.label}",
        results=records,
        meta={"pairs": trials, "seed": seed},
    )


def sweep_wlambda(
    ctx: GroupContext, trials: Optional[int] = None, seed: int = 0
) -> ReportDocument:
    """Contraction bound lambda <= sqrt(n/m) ||Y - U|| for seeded random Y.

    `trials` draws of Y, 100 by default.
    """
    group, tol = ctx.group, ctx.tol
    trials = 100 if trials is None else trials
    rng = np.random.default_rng(seed)
    m = min_nontrivial_degree(ctx.table)
    n = group.n
    records = []
    for t in range(trials):
        y = (
            random_distribution(n, rng, tol)
            if t % 2 == 0
            else random_sparse_distribution(n, rng, tol)
        )
        lam = weighted_cayley_lambda(group, y)
        bound = math.sqrt(n / m) * l2_dist_uniform(y)
        records.append(
            CheckResult.bound(
                "wlambda", group.label, n, f"trial={t};seed={seed}", lam, bound,
                tol.slack, seed=seed,
            )
        )
    return ReportDocument(
        title=f"dist wlambda {group.label}",
        results=records,
        meta={"m": m, "trials": trials, "seed": seed},
    )
