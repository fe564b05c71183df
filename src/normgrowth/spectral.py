"""Random-walk spectra of Cayley digraphs Cay(G, S) for a normal subset S.

Arc g -> h iff g^-1 h in S.  The expansion lambda is computed twice: from
the elements and from the characters.  The element route splits
M0 = M - J/n over the right cosets of a cyclic subgroup <x> into blocks of
size n/m, one per root of unity of Z/m.  For a normal S, the central
characters of every class are read off two walks of the class sums over
those blocks (`class_characters`, built once per class table at every
order up to the cap and certified without a character), and lambda of any
union is a sum of k-vectors.  Weighted walks solve their blocks densely
(`deflated_lambda`).  `convolve_rows` is the one kernel that counts
products with a fixed set on the elements: product sets, arc counts and
convolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import CountMismatch, EmptySubset, NoConvergence, NotNormal
from .chartable import CharacterTable
from .permgroup import _CHUNK_ROWS, ClassTable, FiniteGroup
from .subsets import NormalSubset, SubsetLike, subset_mask
from .tolerances import DEFAULT, Tolerances

# largest order of a dense walk matrix; above it, products by translates
DENSE_CAP = 2500
# seeds 0, 1, ... of v and theta tried before `class_characters` raises NoConvergence
CHARACTER_SEEDS = 4
# the largest relative deviation the certificate of `class_characters` allows
CHARACTER_CERTIFY = 1e-9
# eigenvalues of the unit-diagonal Gram matrix of the W_c below this times
# the largest lie in its null space: the trivial character, deflated, and
# characters seen only through their conjugate
RANK_CUT = 1e-10
# entries of each array of one block of `_class_walks`: its translates and
# their positions (int32), and one gather of them (complex, 1 MB)
WALK_BLOCK = 1 << 16
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
    summed.  The translates come from the group's spanning-tree kernel,
    which walks only the tree ancestors of the columns asked for: the
    left route asks for supp(w), the right route for the union support of
    the rows, and a support that is all of G asks for no columns, so the
    whole walk runs with no gather or copy (`_asked`).  Each h still sums its
    nonzero terms in the same order, so only zero terms are left out and
    the floats are those of whole-group translates.  Translates and rows
    go in blocks that keep every temporary under _CHUNK_ROWS entries.
    Every route reads only element products, and float64 holds these
    counts exactly.
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
        cols, terms = _asked(support, weights)
        for lo in range(0, nonzero.size, step):
            gs = nonzero[lo : lo + step]
            for g, left in zip(gs, group.left_translates(gs, cols)):
                # h = g*f sweeps w over the left translate g F
                out[left] += rows[g] * terms
        return out
    block = rows.reshape(-1, n)
    out = np.zeros_like(block)
    cols, terms = _asked(np.flatnonzero(block.any(axis=0)), block)
    for lo in range(0, support.size, step):
        fs = support[lo : lo + step]
        for f, right in zip(fs, group.right_translates(fs, cols)):
            # g -> g*f moves the rows' weight at g onto g*f
            for top in range(0, block.shape[0], step):
                out[top : top + step, right] += weights[f] * terms[top : top + step]
    return out.reshape(rows.shape)


def _asked(support: np.ndarray, values: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """The columns a translate route asks for, and `values` at them (last axis).

    A support that is all of G asks for none: `values` itself, unsliced.
    """
    if support.size == values.shape[-1]:
        return None, values
    return support, values[..., support]


def _spread(count: int) -> list[int]:
    """At most BRUTE_FORCE_SAMPLE evenly spaced positions in range(count), ends included."""
    if count <= BRUTE_FORCE_SAMPLE:
        return list(range(count))
    # the spacing (count - 1) / (BRUTE_FORCE_SAMPLE - 1) exceeds 1, so no two coincide
    return [i * (count - 1) // (BRUTE_FORCE_SAMPLE - 1) for i in range(BRUTE_FORCE_SAMPLE)]


def _recounted(
    label: str, sample: Mapping[int, tuple], counts: Sequence, brute: Callable
) -> Sequence:
    """`counts` of the (A, B) pairs, once an evenly spaced sample is recounted.

    `sample` maps the positions of `_spread` over the pairs to their (A, B),
    so a sweep need keep no other pair.  `brute(a, b)` recounts one pair on
    the chunked `mul` path; a result that differs from its entry of
    `counts` raises `CountMismatch`.
    """
    for t, (a, b) in sample.items():
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


class ClassCharacters(NamedTuple):
    """The central characters of a class partition, read off the elements by `class_characters`."""

    # omega[chi, c] = |C_c| chi(g_c) / chi(1), row 0 the trivial character
    omega: np.ndarray
    # chi(1), from n / sum over c of |omega[chi, c]|^2 / |C_c|, rounded
    degrees: np.ndarray
    # the largest deviation the certificate measured, relative to its scale
    residual: float


def class_characters(ct: ClassTable) -> ClassCharacters:
    """The central characters of every class, from two walks of the class sums.  Cached on ct.

    B_l(C) is the block l of the walk of the class sum, split as in
    `deflated_lambda` but not deflated, and B(C) its action on the direct
    sum of the blocks l <= m/2.  The
    class sums are central, so B(C) acts on the chi-isotypic part as the
    scalar omega_chi(C) = |C| chi(g_C) / chi(1).  From one random v with the
    all-ones direction deflated, v = sum over chi of p_chi (Burnside's
    method on the regular representation; Dixon 1967):
    - the first walk gives W_c = B(C_c) v = sum over chi of omega_chi(C_c) p_chi;
    - the second gives Z_c = B(C_c) u = H W_c for u = sum over c of
      theta_c W_c, H = sum over c of theta_c B(C_c) generic and central,
      reduced into W^H Z as it is formed.
    The isotypic parts are orthogonal, so with Q whitening the Gram matrix
    W^H W on its range, Q^H W^H Z Q is normal, and its eigenvectors y give
    p_chi up to scale as W Q y.  omega_chi(C_c) is the coefficient of W_c
    on p_chi over that of v = W_0 (class 0 is the identity's), and
    chi(1)^2 = n / sum over c of |omega_chi(C_c)|^2 / |C_c| (row
    orthogonality).  A chi whose isotypic part lies in the blocks l > m/2
    only is the conjugate of one seen, and gets the conjugate row.

    The build reads element products, the class partition and the roots of
    unity of Z/m: no character and no class tensor.  Its certificate reads
    none either: k rows, integral degrees with sum of squares n,
    orthogonal columns, and the rows' agreement with a second central
    element theta' on the same W, which the second walk also carries.
    `residual` is the largest relative deviation measured, and
    CHARACTER_CERTIFY bounds it.  v and theta come from seed 0, then 1, ...,
    so the cached value never depends on a caller's seed.  A partition that
    is not the class partition, such as half of A:5's 5-cycles in place of
    their class, fails the certificate on every seed: after
    CHARACTER_SEEDS seeds that raises NoConvergence and nothing is cached.
    """
    if ct.spectrum is None:
        object.__setattr__(ct, "spectrum", _build_class_characters(ct))
    return ct.spectrum


def _class_walks(ct: ClassTable, u: np.ndarray):
    """Yield (lo, out) with out[i, c, l, j] = (B_l(C_c) u[:, l, j])[lo + i], over blocks of reps.

    For v(x^i t_r) = omega^(li) u[r, l] over `cyclic_cosets`, the walk
    (Mv)(g) = sum over s in C of v(g s) is omega^(li) (B_l(C) u)[r], and
    (B_l(C) u)[r] = sum over s in C of omega^(ld) u[r', l] where
    t_r s = x^d t_r' sits at `coset_positions` r' m + d.  So with
    P[l, r' m + d] = omega^(ld) u[r', l], row r of every class sum gathers P
    at the positions of the left translate t_r G, read in class order, and
    sums each class's run.  A block of reps holds its translates, their
    positions and one gather of them, at most WALK_BLOCK entries each.
    """
    group = ct.group
    cosets = group.cyclic_cosets()
    positions = group.coset_positions()
    order = np.concatenate(ct.classes)
    starts = np.cumsum(ct.sizes) - ct.sizes
    phases = _phases(cosets.shape[1])
    step = max(1, WALK_BLOCK // group.n)
    for lo in range(0, cosets.shape[0], step):
        at = positions.take(group.left_translates(cosets[lo : lo + step, 0]).take(order, axis=1))
        out = np.empty((at.shape[0], ct.n_classes) + u.shape[1:], dtype=complex)
        for l, j in np.ndindex(*u.shape[1:]):
            p = (u[:, l, j, None] * phases[:, l]).ravel()
            out[:, :, l, j] = np.add.reduceat(p.take(at), starts, axis=1)
        yield lo, out


def _build_class_characters(ct: ClassTable) -> ClassCharacters:
    """`class_characters` of ct, built and certified."""
    group, k = ct.group, ct.n_classes
    sizes = ct.sizes.astype(np.float64)
    if k == 1:
        return ClassCharacters(np.ones((1, 1), dtype=complex), np.ones(1, dtype=np.int64), 0.0)
    r, m = group.cyclic_cosets().shape
    for seed in range(CHARACTER_SEEDS):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((r, m // 2 + 1, 1)) + 1j * rng.standard_normal((r, m // 2 + 1, 1))
        v[:, 0] -= v[:, 0].mean()
        w = np.empty((r, k, m // 2 + 1), dtype=complex)
        for lo, out in _class_walks(ct, v):
            w[lo : lo + len(out)] = out[..., 0]
        theta = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
        gw, gz = np.zeros((k, k), dtype=complex), np.zeros((2, k, k), dtype=complex)
        for lo, out in _class_walks(ct, np.einsum("rcl,cj->rlj", w, theta)):
            block = w[lo : lo + len(out)]
            gw += np.einsum("ral,rbl->ab", block.conj(), block)
            gz += np.einsum("ral,rblj->jab", block.conj(), out)
        found = _solve_class_characters(gw, gz, theta, sizes)
        if found.residual <= CHARACTER_CERTIFY:
            return found
    raise NoConvergence(
        f"{group.label}: no seed of {CHARACTER_SEEDS} gave certified class characters; "
        f"the last left {found.residual:.3e}, over {CHARACTER_CERTIFY:.0e}"
    )


def _solve_class_characters(gw, gz, theta, sizes) -> ClassCharacters:
    """The rows from W^H W and W^H Z of two thetas, with the certificate's residual.

    The residual is the largest of: the rows' count off k; the residual of
    the second theta's eigenpairs over sum |theta'_c| |C_c|; the degrees'
    distance from integers; |sum of squared degrees / n - 1|; and the
    entries of X^H X - diag(n / |C|) scaled by sqrt(|C_a| |C_b|) / n, X
    the characters chi(g_c) = omega_chi(C_c) chi(1) / |C_c| (column
    orthogonality).
    """
    k, n = len(sizes), float(sizes.sum())
    scale = 1.0 / np.sqrt(np.diag(gw).real)
    e, vec = np.linalg.eigh(gw * np.outer(scale, scale))
    keep = e > RANK_CUT * e[-1]
    q = scale[:, None] * vec[:, keep] / np.sqrt(e[keep])
    y = np.linalg.eig(q.conj().T @ gz[0] @ q)[1]
    coef = (q @ y).conj().T @ gw
    omega = coef / coef[:, :1]
    # the rows must diagonalise the second central element with the eigenvalues they predict
    second = q.conj().T @ gz[1] @ q @ y - y * (omega @ theta[:, 1])
    agree = np.linalg.norm(second, axis=0) / np.linalg.norm(y, axis=0) / (np.abs(theta[:, 1]) @ sizes)
    # each row's distance to the nearest row, conjugated; one row at a time holds k' k entries
    gap = np.array([(np.abs(row.conj() - omega) / sizes).max(axis=1).min() for row in omega])
    rows = np.concatenate([sizes[None].astype(complex), omega, omega[gap > CHARACTER_CERTIFY].conj()])
    degrees = np.sqrt(n / (np.abs(rows) ** 2 / sizes).sum(axis=1))
    whole = np.rint(degrees)
    chi = rows * whole[:, None] / sizes
    cols = np.abs(chi.conj().T @ chi - np.diag(n / sizes)) * np.sqrt(np.outer(sizes, sizes)) / n
    # np.max, unlike max, keeps a nan, which then fails the bound
    residual = np.max(np.abs([
        len(rows) - k, agree.max(), np.abs(degrees - whole).max(), (whole**2).sum() / n - 1, cols.max()
    ]))
    return ClassCharacters(rows, whole.astype(np.int64), float(residual))


def lambda_direct(s: NormalSubset, tol: Tolerances, seed: int = 0, return_info: bool = False):
    """Second singular value of the walk matrix M of Cay(G, S), from the elements.

    M is central in the group algebra, so it acts on the chi-isotypic part
    as omega_chi(S) / |S|, and lambda = max over nontrivial chi of
    |sum over classes c in S of omega_chi(C_c)| / |S|, with the central
    characters of `class_characters`, built once per class table at every
    order up to the cap.  `tol` and `seed` are not read: the build
    certifies itself under a fixed bound and fixed seeds.  With
    `return_info`, the tuple (lambda, residual of the certificate).
    """
    if s.size == 0:
        raise EmptySubset("connection set is empty")
    chars = class_characters(s.ct)
    sums = chars.omega[1:, list(s.class_indices)].sum(axis=1)
    lam = float(np.abs(sums).max(initial=0.0)) / s.size
    return (lam, chars.residual) if return_info else lam


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
    sample = {t: pairs[t] for t in _spread(len(pairs))}
    _recounted(f"{group.label} arcs", sample, arcs, lambda a, b: arc_count(s, a, b))
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
    # the route of `lambda_direct`: "central", the characters of `class_characters`
    method: str
    # the tolerances the report was made under; `agree` reads lambda_agree
    tol: Tolerances
    # the certificate residual of `class_characters`
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
    lam_dir, residual = lambda_direct(s, tol, seed=seed, return_info=True)
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
        method="central",
        residual=residual,
        tol=tol,
    )
