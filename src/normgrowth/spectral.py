"""Random-walk spectra of Cayley digraphs Cay(G, S) for a normal subset S.

Arc g -> h iff g^-1 h in S.  The expansion lambda is computed twice: from
the elements and from the characters.  The element route splits
M0 = M - J/n over the right cosets of a cyclic subgroup <x> into blocks of
size n/m, one per root of unity of Z/m.  Below DENSE_CAP, while its cost
model stays under CENTRAL_BUDGET, one unitary per block diagonalises the
blocks of every class at once (`central_spectrum`, certified class by
class), and lambda of any union is a sum of k-vectors; past the budget, and
for weighted walks, each set's blocks are solved densely
(`deflated_lambda`).  Above the cap Arnoldi walks all blocks at once over
one |S| x (n/m) table of coset positions, and stops within k steps for k
classes.  `convolve_rows` is the one kernel that counts products with a
fixed set on the elements: product sets, arc counts and convolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CountMismatch, EmptySubset, NoConvergence, NotNormal
from .chartable import CharacterTable
from .permgroup import _CHUNK_ROWS, ClassTable, FiniteGroup
from .subsets import NormalSubset, SubsetLike, subset_mask
from .tolerances import DEFAULT, Tolerances

# largest order solved densely; above it, lambda by Arnoldi and products
# by translates
DENSE_CAP = 2500
# one ulp of 1.0; |S| of them bound the rounding of one walk of a unit vector
_ULP = float(np.finfo(np.float64).eps)
# largest cost k (m//2 + 1) (n/m)^3 of `central_spectrum`, in complex
# multiply-adds for k classes: one eigh and k products of (n/m)-square
# matrices per block.  PSL2:17 costs 3.0e8 and builds in 0.2-0.3 s.  Past
# it, `lambda_direct` solves each set's blocks alone
CENTRAL_BUDGET = 5e8
# generic elements of the centre tried, seeds 0, 1, ..., before
# `central_spectrum` raises NoConvergence
CENTRAL_TRIES = 4
# the certificate allows ||B_c U - U diag(d_c)||_max up to this many (n/m) |C_c| ulp
CENTRAL_ULPS = 64
# records of one batched check or sweep recounted on the chunked `mul` path
BRUTE_FORCE_SAMPLE = 8


def eigenvalues_normal(tab: CharacterTable, s: NormalSubset, tol: Tolerances) -> np.ndarray:
    """Walk-matrix eigenvalues, one per character, for a normal connection set.

    lambda_chi = (1 / (chi(1) |S|)) * sum over classes j in S of |C_j| chi(g_j).
    """
    if s.size == 0:
        raise EmptySubset("connection set is empty")
    idxs = list(s.class_indices)
    weights = tab.class_sizes[idxs].astype(np.float64)
    lam = (tab.values[:, idxs] @ weights) / (tab.degrees * s.size)
    if abs(lam[0] - 1.0) > tol.lambda_one:
        raise NotNormal(f"trivial-character eigenvalue is {lam[0]}, expected 1")
    return lam


def lambda_normal(tab: CharacterTable, s: NormalSubset, tol: Tolerances) -> float:
    """max over nontrivial characters of |lambda_chi|."""
    lam = eigenvalues_normal(tab, s, tol)
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


def _phases(m: int) -> np.ndarray:
    """omega[d, l] = exp(2 pi i l d / m) for d < m and l <= m/2, shape (m, m//2 + 1).

    The DFT of Z/m that splits a walk over the cosets x^i t_r into blocks;
    blocks l and m - l are complex conjugates, so l <= m/2 covers them all.
    """
    return np.exp(2j * np.pi / m * np.outer(np.arange(m), np.arange(m // 2 + 1)))


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
    blocks = np.moveaxis((weights - 1.0 / group.n)[q] @ _phases(q.shape[-1]), -1, 0)
    eigs = np.linalg.eigvalsh(blocks @ blocks.conj().transpose(0, 2, 1))
    return math.sqrt(max(float(eigs[:, -1].max()), 0.0))


def central_spectrum(ct: ClassTable) -> tuple[np.ndarray, float]:
    """(d, residual): the eigenvalues of every deflated class block.  Cached on ct.

    B_l(C) is the block l of `deflated_lambda` for w = 1_C, so
    B_l(S) = sum over classes c in S of B_l(C_c) / |S|.  The class sums are
    central in the group algebra, so for each l the blocks of all classes
    are normal and commute, and one unitary U_l diagonalises them all.  It
    is the eigenbasis of one generic Hermitian element
    H_l = A + A^H, A = sum over c of theta_c B_l(C_c), and
    d[c, l, i] = (U_l^H B_l(C_c) U_l)[i, i].  Each class is certified:
    ||B_c U - U diag(d_c)||_max <= CENTRAL_ULPS (n/m) |C_c| ulp, where
    |C_c| bounds each row's absolute sum and n/m the length of each inner
    product.  Then every block is within (n/m) times that of
    U diag(d_c) U^H in 2-norm, so by Weyl lambda(S) = max over l, i of
    |sum over c in S of d[c, l, i]| / |S| errs by at most (n/m) times the
    bounds of S's classes over |S|.  `residual` is the largest entry
    that the certificate measured.  Deflation sends the trivial eigenvalue
    to 0, and B_(m-l) = conj(B_l), so l <= m/2 covers every block.

    The build reads element products, the class partition and the roots of
    unity of Z/m: no character and no class tensor.  theta comes from seed
    0, then 1, ..., so the cached d never depends on a caller's seed.  A
    theta that separates too few joint eigenspaces fails the certificate,
    and so does a partition whose blocks are not all normal and commuting,
    such as half of A:5's 5-cycles in place of their class: that half is
    not closed under inverses, and its block is not normal.  After
    CENTRAL_TRIES seeds that raises NoConvergence and nothing is cached.
    Blocks are formed one l at a time, k (n/m)^2 entries each.
    """
    if ct.spectrum is None:
        object.__setattr__(ct, "spectrum", _diagonalise_class_blocks(ct))
    return ct.spectrum


def _diagonalise_class_blocks(ct: ClassTable) -> tuple[np.ndarray, float]:
    """`central_spectrum` of ct, built and certified."""
    q = ct.group.coset_quotients()
    r, m = q.shape[1], q.shape[2]
    k = ct.n_classes
    phases = _phases(m)
    # q[i, j, d] in class c adds omega^(ld) to entry (i, j) of block c
    cells = (ct.class_of[q] * (r * r) + np.arange(r * r).reshape(r, r, 1)).ravel()
    bound = CENTRAL_ULPS * r * _ULP * ct.sizes
    for seed in range(CENTRAL_TRIES):
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        d = np.empty((k, m // 2 + 1, r), dtype=complex)
        residual = 0.0
        for l in range(m // 2 + 1):
            w = np.tile(phases[:, l], r * r)
            size = k * r * r
            blocks = np.bincount(cells, w.real, size) + 1j * np.bincount(cells, w.imag, size)
            blocks = blocks.reshape(k, r, r)
            if l == 0:
                blocks -= (ct.sizes / r)[:, None, None]  # w0 = 1_C - |C|/n
            a = np.tensordot(theta, blocks, axes=1)
            u = np.linalg.eigh(a + a.conj().T)[1]
            bu = blocks @ u
            d[:, l] = (u.conj() * bu).sum(axis=1)
            err = np.abs(bu - u * d[:, l, None, :]).max(axis=(1, 2))
            residual = max(residual, float(err.max()))
            if (err > bound).any():
                break
        else:
            return d, residual
    raise NoConvergence(
        f"{ct.group.label}: no generic element of {CENTRAL_TRIES} diagonalised every class "
        f"block; the last left {residual:.3e}, over the bound {CENTRAL_ULPS} (n/m) |C| ulp"
    )


def lambda_route(s: NormalSubset) -> str:
    """The route of `lambda_direct` for S: "central", "dense" or "lanczos"."""
    if s.group.n > DENSE_CAP:
        return "lanczos"
    r, m = s.group.cyclic_cosets().shape
    cost = s.ct.n_classes * (m // 2 + 1) * r**3
    return "central" if cost <= CENTRAL_BUDGET else "dense"


def lambda_direct(s: NormalSubset, tol: Tolerances, seed: int = 0, return_info: bool = False):
    """Second singular value of the walk matrix M of Cay(G, S).

    When n <= DENSE_CAP, the class blocks' joint eigenvalues
    (`central_spectrum`) while their cost stays under CENTRAL_BUDGET, else
    the blocked dense solve of `deflated_lambda`.  Above the cap, Arnoldi on
    the coset blocks of M0 (`_lanczos_lambda`), on the complement G-S,
    again a union of classes, when |S| > n/2: |S| M(S) + |G-S| M(G-S) = J,
    so off the all-ones vector M0(S) = -(|G-S| / |S|) M0(G-S), and S = G
    gives 0 with no table.  Every route reads only element products, the
    roots of unity of Z/m and, on the central route, the class partition.
    With `return_info`, the tuple (lambda, Krylov steps, residual): the
    final Ritz residual on the Krylov route, the largest certificate entry
    of `central_spectrum` on the central one (0 steps), and 0, 0.0 on the
    dense solve.
    """
    if s.size == 0:
        raise EmptySubset("connection set is empty")
    n = s.group.n
    route = lambda_route(s)
    if route == "central":
        d, residual = central_spectrum(s.ct)
        lam, steps = float(np.abs(d[list(s.class_indices)].sum(axis=0)).max()) / s.size, 0
    elif route == "dense":
        lam, steps, residual = deflated_lambda(s.group, s.mask / s.size), 0, 0.0
    elif 2 * s.size <= n:
        lam, steps, residual = _lanczos_lambda(s, seed, tol)
    else:
        rest = NormalSubset.from_classes(s.ct, set(range(s.ct.n_classes)) - set(s.class_indices))
        lam, steps, residual = _lanczos_lambda(rest, seed, tol) if rest.size else (0.0, 0, 0.0)
        ratio = rest.size / s.size
        lam, residual = ratio * lam, ratio * residual
    return (lam, steps, residual) if return_info else lam


def _coset_table(s: NormalSubset) -> np.ndarray:
    """T[s, r] = pos[t_r s] over `coset_positions`, shape (|S|, n/m), int32.

    t_r s = x^d t_r' sits at r' m + d.  One blocked `mul` of the n/m coset
    representatives against S.
    """
    group = s.group
    reps = group.cyclic_cosets()[:, 0]
    return group.coset_positions().take(group.mul(reps, s.indices[:, None]))


def _coset_walk(u: np.ndarray, table: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """One walk step on every block l <= m/2 at once, u of shape (n/m, m//2 + 1).

    With v(x^i t_r) = omega^(li) u[r, l], (Mv)(x^i t_r) = omega^(li) (B_l u)[r],
    where (B_l u)[r] = mean over s of omega^(ld) u[r', l] and t_r s = x^d t_r'.
    So P[r' m + d, l] = u[r', l] omega^(ld), and each s adds the rows T[s] of P.
    """
    p = (u[:, None, :] * phases).reshape(-1, u.shape[1])
    acc = np.zeros_like(u)
    for t in table:
        acc += p.take(t, axis=0)  # per-row take beats one fancy index or a scatter
    return acc / len(table)


def _lanczos_lambda(s: NormalSubset, seed: int, tol: Tolerances) -> tuple[float, int, float]:
    """(lambda, steps, residual) of Arnoldi on the coset blocks of M0, fully reorthogonalised.

    The DFT over the cosets x^i t_r of <x> splits M0 unitarily into blocks
    B_l, l < m, with B_(m-l) = conj(B_l); the walk is on their direct sum
    for l <= m/2 (`_coset_walk`), with the all-ones vector, the constant of
    block 0, deflated.  S is a union of classes, so M is central in the
    group algebra: M0 is normal and acts as one scalar chi(S) / (chi(1) |S|)
    on each chi-isotypic component.  So is the direct sum, whose
    eigenvalues are among those of M0 and which has every modulus of them.
    Its singular values are the moduli of its eigenvalues, and off the
    all-ones vector the Krylov space of any start has dimension at most
    k - 1 for k classes.  lambda is max |theta| over the Ritz values of the
    complex Hessenberg matrix, with no square root.  The top Ritz residual
    |h_(j+1,j) y[last]| bounds theta's distance to an eigenvalue
    (Bauer-Fike, condition 1 for a normal operator).  Stop once it is at
    most max(tol.lanczos_tol |theta|, |S| ulp), or at h_(j+1,j) = 0: M is
    doubly stochastic, so one walk of a unit vector errs by about |S| ulp
    in norm.  More than k steps contradicts the Krylov bound and raises
    `NoConvergence`.
    """
    k = s.ct.n_classes
    table = _coset_table(s)
    phases = _phases(s.group.cyclic_cosets().shape[1])
    floor = s.size * _ULP

    rng = np.random.default_rng(seed)
    shape = (table.shape[1], phases.shape[1])
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v[:, 0] -= v[:, 0].mean()
    v /= np.linalg.norm(v)
    basis = np.empty((k,) + shape, dtype=complex)
    hess = np.zeros((k + 1, k), dtype=complex)
    for j in range(k):
        basis[j] = v
        w = _coset_walk(v, table, phases)
        w[:, 0] -= w[:, 0].mean()  # deflate the all-ones direction
        q = basis[: j + 1]
        # full reorthogonalisation, twice (Parlett ch. 6)
        for _ in range(2):
            c = np.tensordot(q.conj(), w, axes=2)
            hess[: j + 1, j] += c
            w -= np.tensordot(c, q, axes=1)
        hess[j + 1, j] = beta = np.linalg.norm(w)
        theta, y = np.linalg.eig(hess[: j + 1, : j + 1])
        top = int(np.argmax(np.abs(theta)))
        lam = float(abs(theta[top]))
        residual = float(beta * abs(y[-1, top]))
        if residual <= max(tol.lanczos_tol * lam, floor) or beta == 0.0:
            return lam, j + 1, residual
        v = w / beta
    raise NoConvergence(f"Arnoldi did not stop within k = {k} steps, the Krylov dimension bound")


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
    tol: Tolerances,
) -> tuple[int, float]:
    """(|N(B)|, guaranteed lower bound |B| / ((1-a) lambda^2 + a)), a = |B|/n.

    N(B) = B*S is the out-neighborhood, counted with `convolve_rows`; lambda
    comes from the characters.
    """
    b_mask = subset_mask(b)
    b_size = int(b_mask.sum())
    if b_size == 0:
        raise EmptySubset("B is empty")
    lam = lambda_normal(tab, s, tol)
    alpha = b_size / s.group.n
    bound = b_size / ((1.0 - alpha) * lam * lam + alpha)
    return int((convolve_rows(s.group, b_mask, s.mask) > 0).sum()), bound


def mixing_discrepancies(
    s: NormalSubset,
    pairs: Sequence[tuple[SubsetLike, SubsetLike]],
    tab: CharacterTable,
    tol: Tolerances,
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
    lam = lambda_normal(tab, s, tol)
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
    # the route of `lambda_direct`: "central", "dense" or "lanczos"
    method: str
    # the tolerances the report was made under; `agree` reads lambda_agree
    tol: Tolerances
    # Lanczos steps and final Ritz residual; on the central route 0 and the
    # certificate residual, on the dense solve 0 and 0.0
    steps: int = 0
    residual: float = 0.0

    def agree(self) -> bool:
        return abs(self.lambda_direct - self.lambda_char) <= self.tol.lambda_agree


def spectral_report(
    group: FiniteGroup,
    ct: ClassTable,
    tab: CharacterTable,
    s: NormalSubset,
    expr: str = "",
    seed: int = 0,
    tol: Tolerances = DEFAULT,
) -> SpectralReport:
    """lambda by both routes for S, a union of classes of `ct` in `group`."""
    lam_dir, steps, residual = lambda_direct(s, tol, seed=seed, return_info=True)
    if not 0.0 <= lam_dir <= 1.0 + tol.slack:
        raise NoConvergence(f"lambda {lam_dir} outside [0, 1]")
    return SpectralReport(
        group_label=group.label,
        n=group.n,
        subset_expr=expr,
        d=s.size,
        lambda_direct=lam_dir,
        lambda_char=lambda_normal(tab, s, tol),
        char_eigenvalues=tuple(complex(v) for v in eigenvalues_normal(tab, s, tol)),
        method=lambda_route(s),
        steps=steps,
        residual=residual,
        tol=tol,
    )
