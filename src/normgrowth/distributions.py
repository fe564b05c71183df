"""Probability distributions on a group, convolution, and mixing bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .chartable import CharacterTable, min_nontrivial_degree
from .errors import CapExceeded, EmptySubset
from .growth import product_set
from .permgroup import ClassTable, FiniteGroup
from .reports import CheckResult, ReportDocument
from .spectral import DEFAULT_DENSE_CAP
from .subsets import SubsetLike, random_subset, subset_mask


@dataclass(frozen=True)
class Distribution:
    """Probability weights indexed by element index."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if w.min() < 0.0:
            raise ValueError("negative weight")
        if abs(w.sum() - 1.0) > tol.DIST_UNIT:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
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


def point_mass(n: int, g: int) -> Distribution:
    w = np.zeros(n)
    w[g] = 1.0
    return Distribution(w)


def from_subset(b: SubsetLike) -> Distribution:
    """Uniform on B, zero elsewhere."""
    mask = subset_mask(b)
    size = int(mask.sum())
    if size == 0:
        raise EmptySubset("cannot build a distribution on the empty set")
    w = np.zeros(mask.size)
    w[mask] = 1.0 / size
    return Distribution(w)


def convolve(
    group: FiniteGroup,
    x: Distribution,
    y: Distribution,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> Distribution:
    """(X*Y)(h) = sum over g of X(g) Y(g^-1 h), exact to float accumulation."""
    n = group.n
    if x.n != n or y.n != n:
        raise ValueError("distribution length does not match the group order")
    if n <= dense_cap:
        dt = group.division_table()
        return Distribution(x.weights @ y.weights[dt])
    out = np.zeros(n)
    all_idx = np.arange(n)
    # walk whichever support is smaller
    if x.support().size <= y.support().size:
        for g in x.support():
            # h = g*y sweeps y over the support of Y
            out[group.mul(g, all_idx)] += x.weights[g] * y.weights
    else:
        for g in y.support():
            out[group.mul(all_idx, g)] += y.weights[g] * x.weights
    return Distribution(out)


def l2_dist_uniform(x: Distribution) -> float:
    return float(np.sqrt(((x.weights - 1.0 / x.n) ** 2).sum()))


def check_bnp_star(
    group: FiniteGroup,
    m: int,
    x: Distribution,
    y: Distribution,
    inputs: str = "",
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> CheckResult:
    """Convolution contraction: ||X*Y - U|| <= sqrt(n/m) ||X - U|| ||Y - U||."""
    n = group.n
    lhs = l2_dist_uniform(convolve(group, x, y, dense_cap=dense_cap))
    rhs = math.sqrt(n / m) * l2_dist_uniform(x) * l2_dist_uniform(y)
    return CheckResult(
        check="bnp",
        group=group.label,
        n=n,
        inputs=inputs,
        lhs=lhs,
        rhs=rhs,
        margin=float(rhs - lhs),
        passed=bool(lhs <= rhs + tol.SLACK),
    )


def weighted_cayley_lambda(
    group: FiniteGroup,
    y: Distribution,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> float:
    """Expansion of the weighted walk M[x, h] = Y(x^-1 h).

    Returns the square root of the second-largest eigenvalue of MM^t, taken
    as the largest eigenvalue of M0 M0^t with M0 = (Y - U)[x^-1 h] = M - J/n:
    deflating before squaring keeps a uniform Y at rounding level, not at
    the square root of it.
    """
    n = group.n
    if y.n != n:
        raise ValueError("distribution length does not match the group order")
    if n > dense_cap:
        raise CapExceeded(f"order {n} exceeds the dense eigensolver cap {dense_cap}")
    mat = (y.weights - 1.0 / n)[group.division_table()]
    eigs = np.linalg.eigvalsh(mat @ mat.T)
    return math.sqrt(max(float(eigs[-1]), 0.0))


def check_bnp_two_step(
    group: FiniteGroup,
    tab: CharacterTable,
    a: SubsetLike,
    b: SubsetLike,
    inputs: str = "",
) -> CheckResult:
    """Two-step product bound from the minimal degree, first inequality strict.

    |AB| > n / (1 + n^2/(m |A| |B|)) and |AB| >= min(n/2, m |A| |B| / (2n)).
    """
    a_size = int(subset_mask(a).sum())
    b_size = int(subset_mask(b).sum())
    if a_size == 0 or b_size == 0:
        raise EmptySubset("A and B must be nonempty")
    n = group.n
    m = min_nontrivial_degree(tab)
    ab = product_set(group, a, b).size
    strict = n / (1.0 + n * n / (m * a_size * b_size))
    weak = min(n / 2.0, m * a_size * b_size / (2.0 * n))
    return CheckResult(
        check="bnp2step",
        group=group.label,
        n=n,
        inputs=inputs or f"|A|={a_size};|B|={b_size}",
        lhs=float(ab),
        rhs=float(strict),
        margin=float(min(ab - strict, ab - weak)),
        passed=bool(ab > strict and ab >= weak - tol.SLACK),
    )


def random_distribution(n: int, rng: np.random.Generator) -> Distribution:
    """Normalized i.i.d. uniform weights."""
    w = rng.random(n)
    return Distribution(w / w.sum())


def random_sparse_distribution(n: int, rng: np.random.Generator) -> Distribution:
    """Uniform on a random nonempty subset."""
    return from_subset(random_subset(n, rng))


# -- sweeps ---------------------------------------------------------------------


def sweep_bnp_star(
    group: FiniteGroup,
    tab: CharacterTable,
    trials: int = 1000,
    seed: int = 0,
) -> ReportDocument:
    """Seeded random (X, Y) pairs, alternating dense and sparse shapes."""
    rng = np.random.default_rng(seed)
    m = min_nontrivial_degree(tab)
    records = []
    for t in range(trials):
        if t % 2 == 0:
            x = random_distribution(group.n, rng)
            y = random_distribution(group.n, rng)
            shape = "dense"
        else:
            x = random_sparse_distribution(group.n, rng)
            y = random_sparse_distribution(group.n, rng)
            shape = "sparse"
        rec = check_bnp_star(
            group, m, x, y, inputs=f"trial={t};shape={shape};seed={seed}"
        )
        rec.seed = seed
        records.append(rec)
    return ReportDocument(
        title=f"dist bnp {group.label}",
        results=records,
        meta={"m": m, "trials": trials, "seed": seed},
    )


def sweep_bnp_two_step(
    group: FiniteGroup,
    tab: CharacterTable,
    pairs: int = 500,
    seed: int = 0,
) -> ReportDocument:
    rng = np.random.default_rng(seed)
    records = []
    for t in range(pairs):
        a = random_subset(group.n, rng)
        b = random_subset(group.n, rng)
        rec = check_bnp_two_step(
            group,
            tab,
            a,
            b,
            inputs=f"trial={t};seed={seed};|A|={a.size};|B|={b.size}",
        )
        rec.seed = seed
        records.append(rec)
    return ReportDocument(
        title=f"dist bnp2step {group.label}",
        results=records,
        meta={"pairs": pairs, "seed": seed},
    )


def sweep_wlambda(
    group: FiniteGroup,
    ct: ClassTable,
    tab: CharacterTable,
    trials: int = 100,
    seed: int = 0,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> ReportDocument:
    """Contraction bound lambda <= sqrt(n/m) ||Y - U|| for seeded random Y."""
    rng = np.random.default_rng(seed)
    m = min_nontrivial_degree(tab)
    n = group.n
    records = []
    for t in range(trials):
        y = (
            random_distribution(n, rng)
            if t % 2 == 0
            else random_sparse_distribution(n, rng)
        )
        lam = weighted_cayley_lambda(group, y, dense_cap=dense_cap)
        bound = math.sqrt(n / m) * l2_dist_uniform(y)
        rec = CheckResult(
            check="wlambda",
            group=group.label,
            n=n,
            inputs=f"trial={t};seed={seed}",
            lhs=lam,
            rhs=bound,
            margin=float(bound - lam),
            passed=bool(lam <= bound + tol.SLACK),
            seed=seed,
        )
        records.append(rec)
    return ReportDocument(
        title=f"dist wlambda {group.label}",
        results=records,
        meta={"m": m, "trials": trials, "seed": seed},
    )
