"""Complex character tables via the class-algebra eigenvector method.

The class multiplication tensor is computed exactly from the group; the
character table is recovered numerically by simultaneously diagonalizing the
class matrices with a random real recombination, then certified against the
orthogonality relations.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from . import tolerances as tol
from .errors import (
    DegenerateSpectrum,
    EmptySubset,
    NonIntegralDegree,
    OnlyTrivial,
    OrthogonalityError,
    SchemaError,
)
from .permgroup import ClassTable, FiniteGroup


def class_mult_tensor(group: FiniteGroup, ct: ClassTable) -> np.ndarray:
    """Exact class multiplication constants by counting x^-1 * rep products.

    Returns the (k, k, k) int64 array
    a[i, j, k] = #{(x, y) in C_i x C_j : x*y = rep(C_k)}.
    For each class k we walk x over the whole group, form
    y = x^-1 * rep(C_k), and increment a[class_of(x), class_of(y), k];
    then x*y = rep(C_k) by construction.
    """
    k = ct.n_classes
    a = np.zeros((k, k, k), dtype=np.int64)
    for kk in range(k):
        y = group.mul(group.inverse_of, ct.reps[kk])
        pairs = ct.class_of * k + ct.class_of[y]
        a[:, :, kk] = np.bincount(pairs, minlength=k * k).reshape(k, k)
    return a


def class_tensor(ct: ClassTable) -> np.ndarray:
    """`class_mult_tensor` of ct, counted on first use and then kept on ct."""
    if ct.tensor is None:
        # a function of ct's own fields, so caching it on the frozen table is safe
        object.__setattr__(ct, "tensor", class_mult_tensor(ct.group, ct))
    return ct.tensor


@dataclass(frozen=True)
class CharacterTable:
    """Certified complex character table.

    Rows are characters (row 0 trivial), columns follow the class order of
    the ClassTable it was computed from.
    """

    values: np.ndarray        # (k, k) complex128
    degrees: np.ndarray       # (k,) int64, values[:, 0] rounded
    class_sizes: np.ndarray   # (k,) int64
    class_orders: np.ndarray  # (k,) int64 element orders of the representatives
    n: int
    label: str
    residual: float

    @property
    def n_classes(self) -> int:
        return self.values.shape[0]

    def ratios(self) -> np.ndarray:
        """ratios[j] = max over nontrivial rows of |values[r, j]| / degrees[r]."""
        if self.n_classes == 1:
            raise OnlyTrivial("table has only the trivial character")
        mags = np.abs(self.values[1:]) / self.degrees[1:, None]
        return mags.max(axis=0)


def _orthogonality_residual(values: np.ndarray, sizes: np.ndarray, n: int) -> float:
    k = values.shape[0]
    sizes = sizes.astype(np.float64)
    gram = (values * sizes[None, :]) @ values.conj().T / n
    row_dev = np.abs(gram - np.eye(k)).max()
    col = values.T.conj() @ values  # col[j, l] = sum_r conj(chi_r(j)) chi_r(l)
    target = np.diag(n / sizes)
    col_dev = np.abs(col - target).max()
    return float(max(row_dev, col_dev))


def verify_orthogonality(tab: CharacterTable) -> float:
    """Max deviation over the row and column orthogonality relations."""
    return _orthogonality_residual(tab.values, tab.class_sizes, tab.n)


def _sort_rows(chi: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Deterministic row order: trivial first, then (degree, value lex)."""
    k = chi.shape[0]
    triv = int(np.argmin(np.abs(chi - 1.0).max(axis=1)))
    keys = []
    for r in range(k):
        key = (
            int(round(degrees[r])),
            tuple(np.round(chi[r].real, 6)),
            tuple(np.round(chi[r].imag, 6)),
        )
        keys.append((r != triv, key, r))
    order = [r for _, _, r in sorted(keys, key=lambda t: (t[0], t[1]))]
    return np.asarray(order, dtype=np.int64)


def burnside_dixon_numeric(
    a: np.ndarray,
    sizes: np.ndarray,
    n: int,
    *,
    seed: int = 0,
    label: str = "",
    class_orders: np.ndarray,
) -> CharacterTable:
    """Recover the character table from the class multiplication tensor.

    A random real combination T = sum_i c_i M_i of the class matrices
    (M_i)[j, k] = a[i, j, k] is diagonalized; its eigenvectors, scaled to 1
    at the identity class, are the central character vectors.  Retries with
    fresh coefficients when two eigenvalues collide.
    """
    k = a.shape[0]
    sizes = np.asarray(sizes, dtype=np.int64)
    rng = np.random.default_rng(seed)
    vecs = None
    for _ in range(tol.MAX_RETRIES):
        coeffs = rng.uniform(-1.0, 1.0, size=k)
        t_mat = np.tensordot(coeffs, a, axes=(0, 0)).astype(np.float64)
        eigvals, eigvecs = np.linalg.eig(t_mat)
        sep = np.abs(eigvals[:, None] - eigvals[None, :])
        sep[np.diag_indices(k)] = np.inf
        if sep.min() > tol.EIGEN_COLLISION:
            vecs = eigvecs
            break
    if vecs is None:
        raise DegenerateSpectrum(
            f"no collision-free recombination found in {tol.MAX_RETRIES} tries"
        )
    omega = vecs / vecs[0, :]  # column r: central character values, omega[0] = 1
    weight = (np.abs(omega) ** 2 / sizes[:, None].astype(np.float64)).sum(axis=0)
    degrees = np.sqrt(n / weight)
    rounded = np.round(degrees)
    err = np.abs(degrees - rounded).max()
    if err > tol.DEGREE_ERROR:
        raise NonIntegralDegree(f"degree deviates from integer by {err:.3e}")
    chi = (degrees[None, :] * omega / sizes[:, None]).T  # rows = characters
    order = _sort_rows(chi, rounded)
    chi = chi[order]
    deg_sorted = rounded[order].astype(np.int64)
    tab = CharacterTable(
        values=chi,
        degrees=deg_sorted,
        class_sizes=sizes,
        class_orders=np.asarray(class_orders, dtype=np.int64),
        n=int(n),
        label=label,
        residual=_orthogonality_residual(chi, sizes, n),
    )
    _certify(tab, residual_budget=tol.ORTHOGONALITY)
    return tab


def _certify(tab: CharacterTable, residual_budget: float) -> None:
    """Orthogonality, degree integrality, and sum-of-squares checks."""
    if tab.residual > residual_budget:
        raise OrthogonalityError(
            f"orthogonality residual {tab.residual:.3e} > {residual_budget:.1e}"
        )
    dev = np.abs(tab.values[:, 0].real - tab.degrees).max()
    if dev > tol.DEGREE_INTEGRALITY or (tab.degrees < 1).any():
        raise NonIntegralDegree(f"degree integrality off by {dev:.3e}")
    if int((tab.degrees ** 2).sum()) != tab.n:
        raise OrthogonalityError(
            f"sum of squared degrees {int((tab.degrees ** 2).sum())} != {tab.n}"
        )
    if np.abs(tab.values[0] - 1.0).max() > tol.DEGREE_INTEGRALITY:
        raise OrthogonalityError("row 0 is not the trivial character")


def compute_character_table(
    group: FiniteGroup, ct: ClassTable, seed: int = 0
) -> CharacterTable:
    """Tensor + eigenvector recovery + certification for a group."""
    return burnside_dixon_numeric(
        class_tensor(ct),
        ct.sizes,
        group.n,
        seed=seed,
        label=group.label,
        class_orders=ct.rep_orders,
    )


def min_nontrivial_degree(tab: CharacterTable) -> int:
    """Smallest degree over nontrivial characters."""
    if tab.n_classes == 1:
        raise OnlyTrivial("trivial group has no nontrivial character")
    return int(tab.degrees[1:].min())


def character_ratio(tab: CharacterTable, j: int) -> float:
    """max over nontrivial rows of |chi(g_j)| / chi(1)."""
    return float(tab.ratios()[j])


def r_extremes(
    tab: CharacterTable, classes: Union[Iterable[int], "object"]
) -> tuple[float, float]:
    """(min, max) of the character ratio over the given class indices."""
    idxs = getattr(classes, "class_indices", classes)
    idxs = [int(i) for i in idxs]
    if not idxs:
        raise EmptySubset("no classes to take ratio extremes over")
    ratios = tab.ratios()[idxs]
    return float(ratios.min()), float(ratios.max())


def frobenius_tensor(tab: CharacterTable) -> np.ndarray:
    """Class multiplication constants from the character formula.

    a[i, j, k] = |C_i||C_j|/n * sum_chi chi_i chi_j conj(chi_k) / chi(1)
    """
    vals = tab.values
    sizes = tab.class_sizes.astype(np.float64)
    scaled = vals / tab.degrees[:, None]
    s = np.einsum("ri,rj,rk->ijk", vals, vals, scaled.conj())
    out = s * (sizes[:, None, None] * sizes[None, :, None]) / tab.n
    return out


# -- save / load --------------------------------------------------------------


def save_table(tab: CharacterTable, path: Union[str, os.PathLike]) -> None:
    """Write the table as a JSON document with split re/im entries."""
    doc = {
        "group_label": tab.label,
        "order": tab.n,
        "class_sizes": [int(s) for s in tab.class_sizes],
        "class_orders": [int(o) for o in tab.class_orders],
        "characters": [
            [[float(v.real), float(v.imag)] for v in row] for row in tab.values
        ],
    }
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_table(path: Union[str, os.PathLike]) -> CharacterTable:
    """Read a table document, validate its schema, and re-certify it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not a JSON document: {exc}") from exc
    for key in ("group_label", "order", "class_sizes", "class_orders", "characters"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    label = doc["group_label"]
    n = doc["order"]
    sizes = doc["class_sizes"]
    orders = doc["class_orders"]
    chars = doc["characters"]
    if not isinstance(n, int) or n < 1:
        raise SchemaError("order must be a positive integer")
    if not isinstance(sizes, list) or not all(
        isinstance(s, int) and s > 0 for s in sizes
    ):
        raise SchemaError("class_sizes must be positive integers")
    k = len(sizes)
    if sum(sizes) != n:
        raise SchemaError(f"class sizes sum to {sum(sizes)}, order is {n}")
    if len(orders) != k or not all(isinstance(o, int) and o >= 1 for o in orders):
        raise SchemaError("class_orders must be k positive integers")
    if len(chars) != k or any(len(row) != k for row in chars):
        raise SchemaError(f"characters must be a {k}x{k} matrix")
    try:
        values = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in chars],
            dtype=np.complex128,
        )
    except (TypeError, IndexError) as exc:
        raise SchemaError("character entries must be [re, im] pairs") from exc
    degrees = np.round(values[:, 0].real).astype(np.int64)
    size_arr = np.asarray(sizes, dtype=np.int64)
    tab = CharacterTable(
        values=values,
        degrees=degrees,
        class_sizes=size_arr,
        class_orders=np.asarray(orders, dtype=np.int64),
        n=n,
        label=str(label),
        residual=_orthogonality_residual(values, size_arr, n),
    )
    _certify(tab, residual_budget=tol.TABLE_ACCEPT)
    return tab
