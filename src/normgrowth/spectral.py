"""Random-walk spectra of Cayley digraphs, by characters and by eigensolve."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import tolerances as tol
from .errors import EmptySubset, NoConvergence, NotNormal
from .chartable import CharacterTable
from .permgroup import _CHUNK_ROWS, ClassTable, FiniteGroup
from .subsets import NormalSubset, Subset, SubsetLike, subset_mask

DEFAULT_DENSE_CAP = 2500


@dataclass(frozen=True)
class CayleySpec:
    """A Cayley digraph Cay(G, S): arc g -> h iff g^-1 h in S."""

    group: FiniteGroup
    mask: np.ndarray          # connection set S as an element mask
    d: int                    # valency |S|
    normal: bool              # S closed under conjugation
    class_indices: Optional[tuple[int, ...]]  # set when S is a union of classes

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)


def make_cayley(
    group: FiniteGroup,
    subset: SubsetLike,
    ct: Optional[ClassTable] = None,
) -> CayleySpec:
    """Wrap a connection set, detecting normality via generator conjugation."""
    mask = subset_mask(subset)
    if not mask.any():
        raise EmptySubset("connection set is empty")
    if isinstance(subset, NormalSubset):
        return CayleySpec(
            group=group,
            mask=mask,
            d=int(mask.sum()),
            normal=True,
            class_indices=subset.class_indices,
        )
    normal = all(
        (mask[cm] == mask).all() for cm in group.generator_conjugation_maps()
    )
    class_indices = None
    if normal and ct is not None:
        class_indices = tuple(
            int(c) for c in np.unique(ct.class_of[mask])
        )
    return CayleySpec(
        group=group, mask=mask, d=int(mask.sum()), normal=normal,
        class_indices=class_indices,
    )


def _eigenvalues_from_classes(
    tab: CharacterTable, class_indices: Sequence[int], size: int
) -> np.ndarray:
    if not len(class_indices):
        raise EmptySubset("connection set is empty")
    idxs = [int(i) for i in class_indices]
    weights = tab.class_sizes[idxs].astype(np.float64)
    lam = (tab.values[:, idxs] @ weights) / (tab.degrees * size)
    if abs(lam[0] - 1.0) > tol.LAMBDA_ONE:
        raise NotNormal(f"trivial-character eigenvalue is {lam[0]}, expected 1")
    return lam


def eigenvalues_normal(tab: CharacterTable, s: NormalSubset) -> np.ndarray:
    """Walk-matrix eigenvalues, one per character, for a normal connection set.

    lambda_chi = (1 / (chi(1) |S|)) * sum over classes j in S of |C_j| chi(g_j).
    """
    return _eigenvalues_from_classes(tab, s.class_indices, s.size)


def lambda_normal(tab: CharacterTable, s: NormalSubset) -> float:
    """max over nontrivial characters of |lambda_chi|."""
    lam = eigenvalues_normal(tab, s)
    if lam.shape[0] == 1:
        return 0.0
    return float(np.abs(lam[1:]).max())


def _lambda_from_spec(spec: CayleySpec, tab: CharacterTable) -> float:
    lam = _eigenvalues_from_classes(tab, spec.class_indices, spec.d)
    if lam.shape[0] == 1:
        return 0.0
    return float(np.abs(lam[1:]).max())


def walk_matrix(spec: CayleySpec) -> np.ndarray:
    """Dense random-walk matrix M[g, h] = 1/d if g^-1 h in S else 0."""
    return spec.mask[spec.group.division_table()] / spec.d


def commutation_defect(spec: CayleySpec) -> float:
    """max |MM^t - M^tM|; zero for normal connection sets."""
    m = walk_matrix(spec)
    return float(np.abs(m @ m.T - m.T @ m).max())


def lambda_direct(
    spec: CayleySpec,
    dense_cap: int = DEFAULT_DENSE_CAP,
    seed: int = 0,
) -> float:
    """sqrt of the second-largest eigenvalue of MM^t.

    Dense symmetric eigensolve when n <= dense_cap, else power iteration on
    MM^t restricted to the complement of the all-ones vector.
    """
    n = spec.group.n
    if n == 1:
        return 0.0
    if n <= dense_cap:
        m = walk_matrix(spec)
        eigs = np.linalg.eigvalsh(m @ m.T)
        lam2 = max(float(eigs[-2]), 0.0)
        return float(np.sqrt(lam2))
    return _power_lambda(spec, seed)


def _power_lambda(spec: CayleySpec, seed: int) -> float:
    group = spec.group
    n = group.n
    s_idx = spec.indices[:, None]
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


def neighborhood(spec: CayleySpec, b: SubsetLike) -> Subset:
    """Out-neighborhood N(B) = B*S."""
    from .growth import product_set  # local import to avoid a cycle

    return product_set(spec.group, b, Subset(spec.mask))


def arc_count(spec: CayleySpec, a: SubsetLike, b: SubsetLike) -> int:
    """Number of arcs from A to B, counted by brute force."""
    group = spec.group
    a_idx = np.flatnonzero(subset_mask(a))
    b_mask = subset_mask(b)
    chunk = max(1, _CHUNK_ROWS // (group.degree * spec.d))
    return sum(
        int(b_mask[group.mul(a_idx[lo : lo + chunk, None], spec.indices)].sum())
        for lo in range(0, a_idx.size, chunk)
    )


def check_vertex_expansion(
    spec: CayleySpec,
    b: SubsetLike,
    tab: CharacterTable,
) -> tuple[int, float]:
    """(|N(B)|, guaranteed lower bound |B| / ((1-a) lambda^2 + a)), a = |B|/n.

    The bound uses the character route, so the connection set must be normal.
    """
    if not spec.normal or spec.class_indices is None:
        raise NotNormal("vertex expansion bound needs a normal connection set")
    group = spec.group
    b_mask = subset_mask(b)
    b_size = int(b_mask.sum())
    if b_size == 0:
        raise EmptySubset("B is empty")
    lam = _lambda_from_spec(spec, tab)
    alpha = b_size / group.n
    bound = b_size / ((1.0 - alpha) * lam * lam + alpha)
    nb = neighborhood(spec, Subset(b_mask))
    return nb.size, bound


def mixing_discrepancy(
    spec: CayleySpec,
    a: SubsetLike,
    b: SubsetLike,
    tab: CharacterTable,
) -> tuple[float, float]:
    """lhs = |e(A,B)/(dn) - alpha beta|, rhs = lambda sqrt(ab(1-a)(1-b))."""
    if not spec.normal or spec.class_indices is None:
        raise NotNormal("mixing bound needs a normal connection set")
    group = spec.group
    n = group.n
    alpha = subset_mask(a).sum() / n
    beta = subset_mask(b).sum() / n
    lam = _lambda_from_spec(spec, tab)
    e = arc_count(spec, a, b)
    lhs = abs(e / (spec.d * n) - alpha * beta)
    rhs = lam * np.sqrt(alpha * (1 - alpha) * beta * (1 - beta))
    return float(lhs), float(rhs)


@dataclass(frozen=True)
class SpectralReport:
    """Both spectral routes for one Cayley digraph."""

    group_label: str
    n: int
    subset_expr: str
    d: int
    normal: bool
    lambda_direct: float
    lambda_char: Optional[float]
    char_eigenvalues: Optional[tuple[complex, ...]]
    method: str

    def agree(self) -> Optional[bool]:
        if self.lambda_char is None:
            return None
        return abs(self.lambda_direct - self.lambda_char) <= tol.LAMBDA_AGREE


def spectral_report(
    group: FiniteGroup,
    ct: ClassTable,
    tab: CharacterTable,
    s: SubsetLike,
    expr: str = "",
    dense_cap: int = DEFAULT_DENSE_CAP,
    seed: int = 0,
) -> SpectralReport:
    spec = make_cayley(group, s, ct)
    lam_dir = lambda_direct(spec, dense_cap=dense_cap, seed=seed)
    lam_char = None
    eig = None
    if spec.normal and spec.class_indices is not None:
        ns = NormalSubset.from_classes(ct, spec.class_indices)
        vals = eigenvalues_normal(tab, ns)
        lam_char = lambda_normal(tab, ns)
        eig = tuple(complex(v) for v in vals)
    method = "dense" if group.n <= dense_cap else "power"
    if not 0.0 <= lam_dir <= 1.0 + tol.SLACK:
        raise NoConvergence(f"lambda {lam_dir} outside [0, 1]")
    return SpectralReport(
        group_label=group.label,
        n=group.n,
        subset_expr=expr,
        d=spec.d,
        normal=spec.normal,
        lambda_direct=lam_dir,
        lambda_char=lam_char,
        char_eigenvalues=eig,
        method=method,
    )
