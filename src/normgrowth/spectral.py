"""Random-walk spectra of Cayley digraphs Cay(G, S) for a normal subset S.

Arc g -> h iff g^-1 h in S.  The expansion lambda is computed twice: from
the elements (a dense solve split by a cyclic subgroup, or power iteration)
and from the characters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import EmptySubset, NoConvergence, NotNormal
from .chartable import CharacterTable
from .growth import product_set
from .permgroup import _CHUNK_ROWS, ClassTable, FiniteGroup
from .subsets import NormalSubset, SubsetLike, subset_mask

# largest order solved densely; above it, power iteration and translates
DENSE_CAP = 2500


def eigenvalues_normal(tab: CharacterTable, s: NormalSubset) -> np.ndarray:
    """Walk-matrix eigenvalues, one per character, for a normal connection set.

    lambda_chi = (1 / (chi(1) |S|)) * sum over classes j in S of |C_j| chi(g_j).
    """
    if s.size == 0:
        raise EmptySubset("connection set is empty")
    idxs = list(s.class_indices)
    weights = tab.class_sizes[idxs].astype(np.float64)
    lam = (tab.values[:, idxs] @ weights) / (tab.degrees * s.size)
    if abs(lam[0] - 1.0) > tol.LAMBDA_ONE:
        raise NotNormal(f"trivial-character eigenvalue is {lam[0]}, expected 1")
    return lam


def lambda_normal(tab: CharacterTable, s: NormalSubset) -> float:
    """max over nontrivial characters of |lambda_chi|."""
    lam = eigenvalues_normal(tab, s)
    if lam.shape[0] == 1:
        return 0.0
    return float(np.abs(lam[1:]).max())


def walk_matrix(group: FiniteGroup, weights: np.ndarray) -> np.ndarray:
    """Dense weighted walk matrix M[g, h] = w(g^-1 h).

    w = 1_S / |S| gives the random walk on Cay(G, S).
    """
    return weights[group.division_table()]


def deflated_lambda(group: FiniteGroup, weights: np.ndarray) -> float:
    """Second singular value of the walk with probability weights w.

    That is the largest singular value of M0 = M - J/n, the walk matrix of
    w0 = w - 1/n: deflating before squaring keeps a uniform w at rounding
    level, not at the square root of it.  M0[xg, xh] = M0[g, h] for any w.
    So with rows and columns in the order x^i t_r of `cyclic_cosets`,
    M0[x^i t_r, x^j t_s] = w0(t_r^-1 x^(j-i) t_s) is circulant in (i, j),
    and `coset_quotients` indexes it.  The DFT over i splits M0 unitarily
    into the (n/m)-square blocks
    B_l[r, s] = sum over d of w0(t_r^-1 x^d t_s) omega^(ld), with
    omega = exp(2 pi i / m), so lambda = max over l of ||B_l||_2.  w0 is
    real, so B_(m-l) = conj(B_l) has the same norm, and l <= m/2 covers
    every block.
    """
    q = group.coset_quotients()
    m = q.shape[-1]
    # omega[d, l] = exp(2 pi i l d / m) for l <= m/2
    omega = np.exp(2j * np.pi / m * np.outer(np.arange(m), np.arange(m // 2 + 1)))
    blocks = np.moveaxis((weights - 1.0 / group.n)[q] @ omega, -1, 0)
    eigs = np.linalg.eigvalsh(blocks @ blocks.conj().transpose(0, 2, 1))
    return math.sqrt(max(float(eigs[:, -1].max()), 0.0))


def lambda_direct(s: NormalSubset, seed: int = 0) -> float:
    """Second singular value of the walk matrix M of Cay(G, S).

    When n <= DENSE_CAP, the blocked dense solve of `deflated_lambda`; else
    power iteration on MM^t restricted to the complement of the all-ones
    vector.
    """
    if s.size == 0:
        raise EmptySubset("connection set is empty")
    n = s.group.n
    if n == 1:
        return 0.0
    if n <= DENSE_CAP:
        return deflated_lambda(s.group, s.mask / s.size)
    return _power_lambda(s, seed)


def _power_lambda(s: NormalSubset, seed: int) -> float:
    group = s.group
    n = group.n
    s_idx = s.indices[:, None]
    all_idx = np.arange(n)
    # row i of each table: x -> x*s_i (right) and x -> x*s_i^-1 (right_inv)
    right = group.mul(all_idx, s_idx)
    right_inv = group.mul(all_idx, group.inverse_of[s_idx])

    def mv(vec: np.ndarray, tables: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(vec)
        for t in tables:
            acc += vec.take(t)  # take, unlike [], reads an int32 index without a copy
        return acc / len(tables)

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v -= v.mean()
    v /= np.linalg.norm(v)
    theta_old = np.inf
    for _ in range(tol.POWER_MAX_ITER):
        w = mv(mv(v, right_inv), right)  # MM^t v: M^t then M
        w -= w.mean()  # deflate the all-ones direction
        theta = float(v @ w)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(theta - theta_old) <= tol.POWER_TOL:
            return float(np.sqrt(max(theta, 0.0)))
        theta_old = theta
    raise NoConvergence(
        f"power iteration did not settle within {tol.POWER_MAX_ITER} iterations"
    )


def arc_count(s: NormalSubset, a: SubsetLike, b: SubsetLike) -> int:
    """Number of arcs from A to B, counted by brute force."""
    group = s.group
    a_idx = np.flatnonzero(subset_mask(a))
    b_mask = subset_mask(b)
    chunk = max(1, _CHUNK_ROWS // (group.degree * s.size))
    return sum(
        int(b_mask[group.mul(a_idx[lo : lo + chunk, None], s.indices)].sum())
        for lo in range(0, a_idx.size, chunk)
    )


def check_vertex_expansion(
    s: NormalSubset,
    b: SubsetLike,
    tab: CharacterTable,
) -> tuple[int, float]:
    """(|N(B)|, guaranteed lower bound |B| / ((1-a) lambda^2 + a)), a = |B|/n.

    N(B) = B*S is the out-neighborhood; lambda comes from the characters.
    """
    b_size = int(subset_mask(b).sum())
    if b_size == 0:
        raise EmptySubset("B is empty")
    lam = lambda_normal(tab, s)
    alpha = b_size / s.group.n
    bound = b_size / ((1.0 - alpha) * lam * lam + alpha)
    return product_set(s.group, b, s).size, bound


def mixing_discrepancy(
    s: NormalSubset,
    a: SubsetLike,
    b: SubsetLike,
    tab: CharacterTable,
) -> tuple[float, float]:
    """lhs = |e(A,B)/(dn) - alpha beta|, rhs = lambda sqrt(ab(1-a)(1-b))."""
    n = s.group.n
    alpha = subset_mask(a).sum() / n
    beta = subset_mask(b).sum() / n
    lam = lambda_normal(tab, s)
    e = arc_count(s, a, b)
    lhs = abs(e / (s.size * n) - alpha * beta)
    rhs = lam * np.sqrt(alpha * (1 - alpha) * beta * (1 - beta))
    return float(lhs), float(rhs)


@dataclass(frozen=True)
class SpectralReport:
    """Both spectral routes for one Cayley digraph."""

    group_label: str
    n: int
    subset_expr: str
    d: int
    lambda_direct: float
    lambda_char: float
    char_eigenvalues: tuple[complex, ...]
    method: str

    def agree(self) -> bool:
        return abs(self.lambda_direct - self.lambda_char) <= tol.LAMBDA_AGREE


def spectral_report(
    group: FiniteGroup,
    ct: ClassTable,
    tab: CharacterTable,
    s: NormalSubset,
    expr: str = "",
    seed: int = 0,
) -> SpectralReport:
    """lambda by both routes for S, a union of classes of `ct` in `group`."""
    lam_dir = lambda_direct(s, seed=seed)
    if not 0.0 <= lam_dir <= 1.0 + tol.SLACK:
        raise NoConvergence(f"lambda {lam_dir} outside [0, 1]")
    return SpectralReport(
        group_label=group.label,
        n=group.n,
        subset_expr=expr,
        d=s.size,
        lambda_direct=lam_dir,
        lambda_char=lambda_normal(tab, s),
        char_eigenvalues=tuple(complex(v) for v in eigenvalues_normal(tab, s)),
        method="dense" if group.n <= DENSE_CAP else "power",
    )
