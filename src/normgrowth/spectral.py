"""Random-walk spectra of Cayley digraphs Cay(G, S) for a normal subset S.

Arc g -> h iff g^-1 h in S.  The expansion lambda is computed twice: from
the elements (a dense solve split by a cyclic subgroup, or Lanczos on
M0 M0^t, which stops within k steps for k classes) and from the
characters.  `convolve_rows` is the one kernel that counts products with a
fixed set on the elements: product sets, arc counts and convolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tolerances as tol
from .errors import CountMismatch, EmptySubset, NoConvergence, NotNormal
from .chartable import CharacterTable
from .permgroup import _CHUNK_ROWS, ClassTable, FiniteGroup
from .subsets import NormalSubset, SubsetLike, subset_mask

# largest order solved densely; above it, lambda by Lanczos and products
# by translates
DENSE_CAP = 2500
# one ulp of 1.0, the norm bound of M0 M0^t
_ULP = float(np.finfo(np.float64).eps)
# records of one batched check or sweep recounted on the chunked `mul` path
BRUTE_FORCE_SAMPLE = 8


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


def convolve_rows(group: FiniteGroup, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """out[t, h] = sum over g of rows[t, g] w(g^-1 h), for one row or a stack.

    With 0/1 rows of sets R_t and w = 1_F, out[t, h] counts the pairs
    (r, f) in R_t x F with r f = h, so the positive entries of row t are
    the product set R_t F.  When n <= DENSE_CAP, one matmul against
    `walk_matrix`.  Above it, translates by whichever support is smaller:
    one row with no more support than w sums the left translates of w by
    it; otherwise the rows' right translates by the support of w are
    summed.  The translates come from the group's spanning-tree kernel, and
    translates and rows go in blocks that keep every temporary under
    _CHUNK_ROWS entries.  Every route reads only element products, and
    float64 holds these counts exactly.
    """
    rows = np.asarray(rows, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = group.n
    if n <= DENSE_CAP:
        return rows @ walk_matrix(group, weights)
    support = np.flatnonzero(weights)
    step = max(1, _CHUNK_ROWS // n)
    if rows.ndim == 1 and np.count_nonzero(rows) <= support.size:
        out = np.zeros(n)
        nonzero = np.flatnonzero(rows)
        for lo in range(0, nonzero.size, step):
            gs = nonzero[lo : lo + step]
            for g, left in zip(gs, group.left_translates(gs)):
                # h = g*f sweeps w over the left translate g F
                out[left] += rows[g] * weights
        return out
    block = rows.reshape(-1, n)
    out = np.zeros_like(block)
    for lo in range(0, support.size, step):
        fs = support[lo : lo + step]
        for f, right in zip(fs, group.right_translates(fs)):
            # g -> g*f moves the rows' weight at g onto g*f
            for top in range(0, block.shape[0], step):
                out[top : top + step, right] += weights[f] * block[top : top + step]
    return out.reshape(rows.shape)


def _spread(count: int) -> list[int]:
    """At most BRUTE_FORCE_SAMPLE evenly spaced positions in range(count), ends included."""
    if count <= BRUTE_FORCE_SAMPLE:
        return list(range(count))
    # the spacing (count - 1) / (BRUTE_FORCE_SAMPLE - 1) exceeds 1, so no two coincide
    return [i * (count - 1) // (BRUTE_FORCE_SAMPLE - 1) for i in range(BRUTE_FORCE_SAMPLE)]


def _recounted(
    label: str, pairs: Sequence[tuple], counts: Sequence, brute: Callable
) -> Sequence:
    """`counts` of the (A, B) pairs, once an evenly spaced sample is recounted.

    `brute(a, b)` recounts one pair on the chunked `mul` path; a result that
    differs from its entry of `counts` raises `CountMismatch`.
    """
    for t in _spread(len(pairs)):
        a, b = pairs[t]
        want = brute(a, b)
        if not np.array_equal(want, counts[t]):
            raise CountMismatch(
                f"{label}: pair {t} counts {np.asarray(counts[t]).tolist()}, "
                f"the elements {np.asarray(want).tolist()}"
            )
    return counts


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


def lambda_direct(s: NormalSubset, seed: int = 0, return_info: bool = False):
    """Second singular value of the walk matrix M of Cay(G, S).

    When n <= DENSE_CAP, the blocked dense solve of `deflated_lambda`; else
    Lanczos on M0 M0^t, restricted to the complement of the all-ones
    vector (`_lanczos_lambda`).  With `return_info`, the tuple (lambda,
    Lanczos steps, final residual), with 0 and 0.0 on the dense route.
    """
    if s.size == 0:
        raise EmptySubset("connection set is empty")
    n = s.group.n
    if n == 1:
        lam, steps, residual = 0.0, 0, 0.0
    elif n <= DENSE_CAP:
        lam, steps, residual = deflated_lambda(s.group, s.mask / s.size), 0, 0.0
    else:
        lam, steps, residual = _lanczos_lambda(s, seed)
    return (lam, steps, residual) if return_info else lam


def _mean_take(vec: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """The mean over the rows t of `tables` of vec[t]: one walk step."""
    acc = np.zeros_like(vec)
    for t in tables:
        acc += vec.take(t)  # take, unlike [], reads an int32 index without a copy
    return acc / len(tables)


def _lanczos_lambda(s: NormalSubset, seed: int) -> tuple[float, int, float]:
    """(lambda, steps, residual) of Lanczos on M0 M0^t, fully reorthogonalised.

    M is a class function's convolution, so it acts as one scalar on each
    chi-isotypic component, and so does M0 M0^t; on the complement of the
    all-ones vector (the trivial component) the Krylov space of any start
    has dimension at most k - 1, k the number of classes.  Lanczos stops
    when the top Ritz pair's residual |beta_j y_j[last]| is at most
    LANCZOS_TOL * theta_max, or when beta_j = 0; taking more than k steps
    contradicts the bound and raises `NoConvergence`.  ||M0 M0^t|| <= 1, so
    a theta_max below one ulp of 1 is rounding noise (S = G has no other),
    and the residual is then measured against that ulp instead.
    """
    group = s.group
    n = group.n
    k = s.ct.n_classes
    # row i of each table: x -> x*s_i (right) and its inverse x -> x*s_i^-1 (right_inv)
    right = group.right_translates(s.indices)
    right_inv = np.empty_like(right)
    points = np.arange(n, dtype=right.dtype)
    for row, inv_row in zip(right, right_inv):
        inv_row[row] = points

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v -= v.mean()
    v /= np.linalg.norm(v)
    basis = np.empty((k, n))
    alpha = np.empty(k)
    beta = np.empty(k)
    for j in range(k):
        basis[j] = v
        w = _mean_take(_mean_take(v, right_inv), right)  # M^t then M; deflated, M0 M0^t v
        w -= w.mean()  # deflate the all-ones direction
        q = basis[: j + 1]
        c = q @ w
        alpha[j] = c[j]
        # full reorthogonalisation, twice (Parlett ch. 6)
        w -= c @ q
        w -= (q @ w) @ q
        beta[j] = np.linalg.norm(w)
        tri = np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
        theta, y = np.linalg.eigh(tri)
        residual = float(beta[j] * abs(y[-1, -1]))
        if residual <= tol.LANCZOS_TOL * max(theta[-1], _ULP) or beta[j] == 0.0:
            return float(np.sqrt(max(theta[-1], 0.0))), j + 1, residual
        v = w / beta[j]
    raise NoConvergence(
        f"Lanczos did not stop within k = {k} steps, the Krylov dimension bound"
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

    N(B) = B*S is the out-neighborhood, counted with `convolve_rows`; lambda
    comes from the characters.
    """
    b_mask = subset_mask(b)
    b_size = int(b_mask.sum())
    if b_size == 0:
        raise EmptySubset("B is empty")
    lam = lambda_normal(tab, s)
    alpha = b_size / s.group.n
    bound = b_size / ((1.0 - alpha) * lam * lam + alpha)
    return int((convolve_rows(s.group, b_mask, s.mask) > 0).sum()), bound


def mixing_discrepancies(
    s: NormalSubset,
    pairs: Sequence[tuple[SubsetLike, SubsetLike]],
    tab: CharacterTable,
) -> list[tuple[float, float]]:
    """(lhs, rhs) of the mixing bound of every (A, B) pair, from one kernel call.

    lhs = |e(A,B)/(dn) - alpha beta| and rhs = lambda sqrt(ab(1-a)(1-b)),
    with lambda from the characters.  Stacking the A as rows, e(A, B) is the
    row sum of convolve_rows(G, A, 1_S) * B.  An evenly spaced sample of at
    most BRUTE_FORCE_SAMPLE pairs is recounted with `arc_count`, and any
    disagreement raises `CountMismatch`.
    """
    group = s.group
    n = group.n
    lam = lambda_normal(tab, s)
    a_rows = np.array([subset_mask(a) for a, _ in pairs], dtype=bool).reshape(-1, n)
    b_rows = np.array([subset_mask(b) for _, b in pairs], dtype=bool).reshape(-1, n)
    arcs = (convolve_rows(group, a_rows, s.mask) * b_rows).sum(axis=1)
    _recounted(f"{group.label} arcs", pairs, arcs, lambda a, b: arc_count(s, a, b))
    return [
        _mixing_bound(n, s.size, lam, int(a.sum()), int(b.sum()), int(e))
        for a, b, e in zip(a_rows, b_rows, arcs)
    ]


def _mixing_bound(
    n: int, d: int, lam: float, a_size: int, b_size: int, arcs: int
) -> tuple[float, float]:
    """(lhs, rhs) of the mixing bound from |A|, |B| and e(A, B)."""
    alpha = a_size / n
    beta = b_size / n
    lhs = abs(arcs / (d * n) - alpha * beta)
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
    # Lanczos steps and final residual; 0 and 0.0 on the dense route
    steps: int = 0
    residual: float = 0.0

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
    lam_dir, steps, residual = lambda_direct(s, seed=seed, return_info=True)
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
        method="dense" if group.n <= DENSE_CAP else "lanczos",
        steps=steps,
        residual=residual,
    )
