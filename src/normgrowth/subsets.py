"""Element subsets and unions of conjugacy classes, plus subset expressions."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Union

import numpy as np

from .errors import EmptySubset, NotNormal, ParseError
from .permgroup import ClassTable, FiniteGroup, word_image


@dataclass(frozen=True)
class Subset:
    """An arbitrary element set as a boolean mask over element indices."""

    mask: np.ndarray

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "Subset":
        mask = np.zeros(n, dtype=bool)
        mask[np.asarray(list(indices), dtype=np.int64)] = True
        return cls(mask)

    @classmethod
    def full(cls, n: int) -> "Subset":
        return cls(np.ones(n, dtype=bool))

    @property
    def size(self) -> int:
        return int(self.mask.sum())

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __contains__(self, idx: int) -> bool:
        return bool(self.mask[idx])


@dataclass(frozen=True)
class NormalSubset:
    """A union of conjugacy classes of a fixed group.

    Equal subsets of the same table hash alike: the hash leaves out the
    table, whose arrays cannot be hashed.
    """

    ct: ClassTable = field(hash=False)
    class_indices: tuple[int, ...]

    @classmethod
    def from_classes(cls, ct: ClassTable, indices: Iterable[int]) -> "NormalSubset":
        idxs = tuple(sorted(set(int(i) for i in indices)))
        for i in idxs:
            if not 0 <= i < ct.n_classes:
                raise ParseError(f"class index {i} out of range for {ct.group.label}")
        return cls(ct=ct, class_indices=idxs)

    @classmethod
    def from_subset(cls, ct: ClassTable, subset: Union[Subset, np.ndarray]) -> "NormalSubset":
        """Interpret an element set as a union of classes; NotNormal otherwise."""
        mask = subset.mask if isinstance(subset, Subset) else np.asarray(subset, dtype=bool)
        hit = np.unique(ct.class_of[mask]) if mask.any() else np.array([], dtype=np.int64)
        covered = ct.mask_of_classes(hit)
        if not (covered == mask).all():
            partial = [int(c) for c in hit if not mask[ct.classes[c]].all()]
            raise NotNormal(f"subset meets classes {partial} only partially")
        return cls.from_classes(ct, hit)

    @cached_property
    def mask(self) -> np.ndarray:
        """Formed on first use: sweeps on the class tensor never read it."""
        return self.ct.mask_of_classes(self.class_indices)

    @property
    def indicator(self) -> np.ndarray:
        """The (k,) bool class indicator: entry c is set when class c is in the union."""
        row = np.zeros(self.ct.n_classes, dtype=bool)
        row[list(self.class_indices)] = True
        return row

    @cached_property
    def symmetric(self) -> bool:
        idxs = list(self.class_indices)
        return sorted(self.ct.inverse_class[idxs]) == idxs

    @cached_property
    def size(self) -> int:
        return int(self.ct.sizes[list(self.class_indices)].sum())

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    @property
    def group(self) -> FiniteGroup:
        return self.ct.group

    def as_subset(self) -> Subset:
        return Subset(self.mask)

    def is_trivial(self) -> bool:
        """Empty, or exactly the identity class."""
        return self.class_indices in ((), (0,))

    def expr(self) -> str:
        return union_exprs([self.indicator])[0]


SubsetLike = Union[Subset, NormalSubset, np.ndarray]


def subset_mask(s: SubsetLike) -> np.ndarray:
    if isinstance(s, (Subset, NormalSubset)):
        return s.mask
    return np.asarray(s, dtype=bool)


def union_exprs(rows: Iterable[np.ndarray]) -> list[str]:
    """The expression "classes:i,j,..." of each class indicator row; `parse_subset_expr` reads it."""
    return ["classes:" + ",".join(map(str, np.flatnonzero(r).tolist())) for r in rows]


def parse_subset_expr(text: str, ct: ClassTable) -> NormalSubset:
    """Parse a subset expression into a union of classes.

    Forms: "class:i", "classes:i,j,...", "all-nonid", "complement-real",
    "word:<w>" (image of the word map, always a normal subset).
    """
    text = text.strip()
    if text == "all-nonid":
        return NormalSubset.from_classes(ct, range(1, ct.n_classes))
    if text == "complement-real":
        return NormalSubset.from_classes(
            ct, [int(i) for i in np.flatnonzero(~ct.is_real)]
        )
    if text.startswith("class:"):
        body = text[len("class:"):]
        try:
            return NormalSubset.from_classes(ct, [int(body)])
        except ValueError as exc:
            raise ParseError(f"bad class index in {text!r}") from exc
    if text.startswith("classes:"):
        body = text[len("classes:"):]
        try:
            idxs = [int(tok) for tok in body.split(",") if tok != ""]
        except ValueError as exc:
            raise ParseError(f"bad class list in {text!r}") from exc
        if not idxs:
            raise ParseError(f"empty class list in {text!r}")
        return NormalSubset.from_classes(ct, idxs)
    if text.startswith("word:"):
        img = word_image(ct, text[len("word:"):])
        return NormalSubset.from_subset(ct, img)
    raise ParseError(f"unrecognized subset expression {text!r}")


def union_rows(ct: ClassTable, include_identity_class: bool = True) -> np.ndarray:
    """The (2^p - 1, k) bool indicators of every nonempty union of the p classes in play.

    Row r - 1 holds the classes at the set bits of r, bit i standing for the
    i-th class in play: bitmask order over class indices.
    """
    pool = np.arange(0 if include_identity_class else 1, ct.n_classes)
    bits = np.arange(1, 1 << pool.size)
    rows = np.zeros((bits.size, ct.n_classes), dtype=bool)
    rows[:, pool] = bits[:, None] >> np.arange(pool.size) & 1
    return rows


def enumerate_normal_subsets(
    ct: ClassTable,
    include_identity_class: bool = True,
) -> list[NormalSubset]:
    """All nonempty unions of classes, in the bitmask order of `union_rows`."""
    rows = union_rows(ct, include_identity_class)
    return [NormalSubset.from_classes(ct, np.flatnonzero(r)) for r in rows]


def random_normal_subset(
    ct: ClassTable, rng: np.random.Generator, include_identity_class: bool = True
) -> NormalSubset:
    """A uniformly random nonempty union of classes; EmptySubset when no class is in play."""
    pool = np.arange(0 if include_identity_class else 1, ct.n_classes)
    if not pool.size:
        raise EmptySubset(f"{ct.group.label} has no nonidentity class to draw")
    while True:
        # one draw of every bit reads the same values as one draw per class
        pick = pool[rng.integers(2, size=pool.size) == 1]
        if pick.size:
            return NormalSubset.from_classes(ct, pick)


def random_subset(
    n: int, rng: np.random.Generator, density: Optional[float] = None
) -> Subset:
    """A random nonempty element set; density drawn uniformly when not given.

    EmptySubset when no draw could be nonempty: n < 1, or a density that
    is not positive.
    """
    if n < 1 or (density is not None and not density > 0):
        raise EmptySubset(f"no nonempty set of {n} elements at density {density}")
    while True:
        d = rng.uniform(0.0, 1.0) if density is None else density
        mask = rng.random(n) < d
        if mask.any():
            return Subset(mask)
