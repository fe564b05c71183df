"""Finite permutation groups, fully enumerated, with index-based arithmetic.

A group is stored as the (n, degree) array of image rows of its elements in
BFS discovery order, identity first.  All downstream modules address elements
by their row index.  Arbitrary products go through `FiniteGroup.mul`, which
resolves image rows back to indices through their images on a small base of
points: a direct-address table when it fits, a sorted key search otherwise.
`closure` builds that base index once, right after its BFS, and its
certificate and `FiniteGroup.division_columns` (every x^-1 * c, for the
class tensor) read products' base images straight off the image rows.
Whole-group translates go through `left_translates` and `right_translates`,
which gather along the BFS spanning tree that `closure` records, from the
generator tables its certificate looked up, and resolve no image row.
Asked for some columns only, they walk only those columns' ancestors in
the tree, not all of G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    CapExceeded,
    ClassPartitionError,
    EmptyWord,
    KeyCollision,
    NormGrowthError,
    NotBijective,
    ParseError,
)

DEFAULT_ORDER_CAP = 25_000
# image-row entries per vectorized block
_CHUNK_ROWS = 1 << 18
# entries of the direct-address lookup table (int32, 4 MB)
_TABLE_ENTRIES = 1 << 20


class Permutation:
    """A permutation of {0, ..., degree-1} given by its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(int(x) for x in images)
        if not imgs or sorted(imgs) != list(range(len(imgs))):
            raise NotBijective(f"images {imgs} are not a bijection on >= 1 points")
        self.images = imgs

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, cycles: Sequence[Sequence[int]], degree: int) -> "Permutation":
        """Build from disjoint cycles; points outside the cycles stay fixed."""
        images = list(range(degree))
        seen: set[int] = set()
        for cyc in cycles:
            for pt in cyc:
                if not 0 <= pt < degree:
                    raise NotBijective(f"point {pt} outside degree {degree}")
                if pt in seen:
                    raise NotBijective(f"point {pt} repeated across cycles")
                seen.add(pt)
            for i, pt in enumerate(cyc):
                images[pt] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(x) = self(other(x))."""
        if self.degree != other.degree:
            raise NotBijective("degree mismatch in product")
        return Permutation(self.images[i] for i in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(inv)

    def order(self) -> int:
        return int(_orders_of_rows(np.asarray(self.images)[None, :])[0])

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        out = []
        seen = [False] * self.degree
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            out.append(tuple(cyc))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "Permutation(id)"
        return "Permutation(" + " ".join(
            "(" + " ".join(map(str, c)) + ")" for c in cycs
        ) + ")"


def _void_keys(cols: np.ndarray) -> np.ndarray:
    """One opaque byte key per row of base images, for sorting and searching."""
    cols = np.ascontiguousarray(cols, dtype=np.int32)
    return cols.view(np.dtype((np.void, cols.itemsize * cols.shape[1]))).ravel()


def _orders_of_rows(rows: np.ndarray) -> np.ndarray:
    """Orders of the permutations given by image rows (m, degree).

    The order is the lcm of the cycle lengths.  Pointer jumping labels every
    point with the least point of its cycle: after r rounds, label[i] is the
    least of i and its next 2^r - 1 images and cur is the 2^r-th power of
    the row, so ceil(log2 degree) rounds, of one gather each, cover every
    cycle.  A point's cycle length is the count of its label in its row.
    """
    m, degree = rows.shape
    label, cur = np.broadcast_to(np.arange(degree, dtype=rows.dtype), rows.shape), rows
    for _ in range((degree - 1).bit_length()):
        # label[cur] and cur[cur] by one gather
        ahead, cur = np.take_along_axis(np.stack([label, cur]), cur[None], axis=2)
        label = np.minimum(label, ahead)
    keys = label + degree * np.arange(m)[:, None]
    counts = np.bincount(keys.ravel(), minlength=m * degree).reshape(m, degree)
    return np.lcm.reduce(np.take_along_axis(counts, label, axis=1), axis=1)


class _SpanningTree(NamedTuple):
    """The BFS spanning tree of x -> x*g over the generators g that `closure` walked.

    Tree positions are element indices: element 0 is the identity, and
    x_t = x_parent[t] * g_j for the generator in slot j = offset[t] / n.
    `bounds` ends each BFS layer after the root's, so a layer's parents
    all precede it.  `right` is the certificate's table of every x * g_j.
    """

    parent: np.ndarray             # (n,) int32: index of the parent
    offset: np.ndarray             # (n,) int32: n times the slot of the last step
    bounds: list[int]              # end index of each layer
    right: np.ndarray              # (k n,) int32: right[j n + x] = x * g_j


class _BaseIndex(NamedTuple):
    """Element indices by their images on a base, points whose pointwise stabilizer is trivial.

    The key of a row is its base images read as digits in radix `degree`,
    looked up in a direct-address table when degree^|base| <= _TABLE_ENTRIES;
    otherwise the byte keys of the base images are searched in sorted order.
    """

    base: tuple[int, ...]
    radix: Optional[np.ndarray]    # (|base|,) int32 digit weights; None on the sorted keys
    table: Optional[np.ndarray]    # (degree^|base|,) int32: index of each key, -1 for none
    keys: Optional[np.ndarray]     # the elements' byte keys, sorted; None on the table
    order: Optional[np.ndarray]    # (n,) int32: the element of each sorted key

    def find(self, planes: np.ndarray) -> np.ndarray:
        """Indices of the elements whose image of base point i is planes[i]; -1 where none is.

        `planes` has shape (|base|, ...), and the result has the shape that
        follows.  A table key is summed one plane at a time.
        """
        if self.table is not None:
            key = np.zeros(planes.shape[1:], dtype=np.int32)
            for plane, weight in zip(planes, self.radix.tolist()):
                key += plane * weight
            return self.table.take(key)
        query = _void_keys(np.moveaxis(planes, 0, -1).reshape(-1, len(self.base)))
        pos = np.minimum(np.searchsorted(self.keys, query), self.keys.size - 1)
        return np.where(self.keys[pos] == query, self.order[pos], -1).reshape(planes.shape[1:])


def _base_index(perms: np.ndarray) -> _BaseIndex:
    """The base index of the distinct image rows `perms`.

    Each base point is the first point moved by a row that fixes every
    earlier one, so no two rows share their base images once the rows
    form a group; until the certificate has shown that, a lookup may find
    the wrong row.
    """
    n, degree = perms.shape
    base: list[int] = []
    stab = np.ones(n, dtype=bool)
    while stab.sum() > 1:
        moved = (perms[stab] != np.arange(degree)).any(axis=0)
        pt = int(np.flatnonzero(moved)[0])
        base.append(pt)
        stab &= perms[:, pt] == pt
    cols = perms[:, base]
    size = degree ** len(base)
    if size <= _TABLE_ENTRIES:
        radix = (degree ** np.arange(len(base))).astype(np.int32)
        table = np.full(size, -1, dtype=np.int32)
        table[cols @ radix] = np.arange(n)
        return _BaseIndex(tuple(base), radix, table, None, None)
    keys = _void_keys(cols)
    order = np.argsort(keys, kind="stable").astype(np.int32)
    return _BaseIndex(tuple(base), None, None, keys[order], order)


class FiniteGroup:
    """A fully enumerated permutation group addressed by element index.

    Element 0 is always the identity.  `perms[i]` is the image row of element
    i; products of known elements are resolved back to indices through their
    images on a base of points whose pointwise stabilizer is trivial.  Built
    by `closure` alone, which hands over the base index its certificate
    looked products up in and the spanning tree it certified; the
    generators are read off the identity's row of its right table.
    """

    def __init__(
        self,
        perms: np.ndarray,
        label: str,
        tree: _SpanningTree,
        index: _BaseIndex,
        characteristic: Optional[int] = None,
        field_order: Optional[int] = None,
        simple: bool = False,
    ):
        self.perms = np.ascontiguousarray(perms, dtype=np.int32)
        self.n, self.degree = self.perms.shape
        self.label = label
        self._tree = tree
        # right[j n + 0] = identity * g_j = g_j
        self.generators = tuple(tree.right[:: self.n].tolist())
        self.characteristic = characteristic
        self.field_order = field_order
        self.simple = simple
        self._index = index
        self.base = index.base
        self._inverse: Optional[np.ndarray] = None
        self._gen_conj: Optional[list[np.ndarray]] = None
        self._division_table: Optional[np.ndarray] = None
        self._cyclic_cosets: Optional[np.ndarray] = None
        self._coset_positions: Optional[np.ndarray] = None
        self._coset_quotients: Optional[np.ndarray] = None
        self._left_inv: Optional[np.ndarray] = None

    # -- index machinery ---------------------------------------------------

    def index_of(self, rows: np.ndarray) -> np.ndarray:
        """Map image rows (m, degree) of known elements back to indices."""
        rows = np.asarray(rows)
        if rows.ndim == 1:
            rows = rows[None, :]
        return self._resolve(rows[:, self.base].T)

    def _resolve(self, planes: np.ndarray) -> np.ndarray:
        """`_BaseIndex.find` of the base-image planes, which must all be elements (KeyError)."""
        idx = self._index.find(planes)
        if (idx < 0).any():
            raise KeyError("row is not an element of the group")
        return idx

    # -- element arithmetic -------------------------------------------------

    @property
    def identity(self) -> int:
        return 0

    @property
    def inverse_of(self) -> np.ndarray:
        """inverse_of[i] = index of the inverse of element i."""
        if self._inverse is None:
            inv_rows = np.empty_like(self.perms)
            rows = np.arange(self.n)[:, None]
            inv_rows[rows, self.perms] = np.arange(self.degree, dtype=np.int32)
            self._inverse = self.index_of(inv_rows)
        return self._inverse

    def mul(self, a: int | np.ndarray, b: int | np.ndarray) -> int | np.ndarray:
        """Indices of the products a*b, with (a*b)(x) = a(b(x)).

        `a` and `b` are index arrays (or ints) that broadcast together; the
        result has their broadcast shape, an int for two ints.  Image rows are
        formed and resolved in blocks of at most _CHUNK_ROWS entries.  An index
        outside 0..n-1 raises IndexError.
        """
        it = np.nditer(
            [a, b, None],
            flags=["external_loop", "buffered", "zerosize_ok"],
            op_flags=[["readonly"], ["readonly"], ["writeonly", "allocate"]],
            op_dtypes=[np.intp, np.intp, np.int32],
            order="C",
            buffersize=max(1, _CHUNK_ROWS // self.degree),
        )
        flat = self.perms.ravel()
        with it:
            for pa, pb, out in it:
                if min(pa.min(), pb.min()) < 0 or max(pa.max(), pb.max()) >= self.n:
                    raise IndexError(f"element index out of range for {self.label}")
                # rows[i, x] = perms[pa[i], perms[pb[i], x]], read from the flat array
                starts = pa[:, None] * self.degree
                out[...] = self.index_of(flat.take(starts + self.perms.take(pb, axis=0)))
            prod = it.operands[2]
        return int(prod) if prod.ndim == 0 else prod

    def division_columns(self, cols) -> np.ndarray:
        """out[i, x] = index of x^-1 * cols[i], int32: `division_table()[:, cols].T` at any order.

        (x^-1 c)(b) = x^-1(c(b)), so the base images of x^-1 c are the row of
        x^-1 read at c's base images: one gather of the inverse rows, in
        blocks of elements that keep every temporary under _CHUNK_ROWS
        entries, resolved through the base index.  No product row is
        formed.  An index outside 0..n-1 raises IndexError.
        """
        cols = self._checked(cols)
        # points[j, i] = cols[i](base[j])
        points = self.perms[cols][:, self.base].T
        inverse = self.inverse_of
        out = np.empty((cols.size, self.n), dtype=np.int32)
        block = max(1, _CHUNK_ROWS // (self.degree + points.size))
        for lo in range(0, self.n, block):
            # inv_cols[p, x] = x^-1(p) over this block of elements x
            inv_cols = self.perms.take(inverse[lo : lo + block], axis=0).T.copy()
            out[:, lo : lo + block] = self._resolve(inv_cols[points])
        return out

    def inv(self, a: int) -> int:
        return int(self.inverse_of[a])

    def permutation(self, i: int) -> Permutation:
        return Permutation(self.perms[i])

    def centralizer_orders(self, elements: Iterable[int]) -> np.ndarray:
        """|C_G(r)| = #{x : x*r = r*x} for each element index r, int64.

        x*r = r*x exactly when x(r(i)) = r(x(i)) at every point i, so the
        candidates are filtered on their permutation rows one point at a
        time.  No image row is resolved, and after the first few points the
        candidates are already the centralizer.
        """
        orders = []
        for r in elements:
            row = self.perms[int(r)]
            cand = np.arange(self.n)
            for i in range(self.degree):
                cand = cand[self.perms[cand, row[i]] == row[self.perms[cand, i]]]
            orders.append(cand.size)
        return np.array(orders, dtype=np.int64)

    def generator_conjugation_maps(self) -> list[np.ndarray]:
        """For each generator g, the full map x -> g*x*g^-1 as an index array.

        g x is row j of `left_translates(gens)`, and (g x) g^-1 is row j of
        `right_translates` of the inverses read there; no image row is
        resolved.
        """
        if self._gen_conj is None:
            gens = np.array(self.generators)
            left = self.left_translates(gens)
            right = self.right_translates(self.inverse_of[gens])
            self._gen_conj = [r.take(x) for r, x in zip(right, left)]
        return self._gen_conj

    # -- whole-group translates ---------------------------------------------

    def _tree_walk(
        self, seeds, steps: np.ndarray, cols: Optional[np.ndarray]
    ) -> np.ndarray:
        """out[i, x] = w[i, cols[x]] (w[i, x] when cols is None), int32.

        w[i, 0] = seeds[i] and w[i, t] = steps[offset[t] + w[i, parent[t]]]
        over the elements t, layer by layer.  Given `cols`, only their
        ancestors in the tree are walked: one upward pass over the layers
        marks them, and each layer's gather runs over its marked elements,
        addressed by their positions among the marked.  When the ancestors
        are all of G, the walk is the whole tree's.  One gather per layer
        fills a block of rows; blocks keep every walked temporary under
        _CHUNK_ROWS entries.
        """
        tree = self._tree
        seeds = self._checked(seeds)
        at = None if cols is None else self._checked(cols)
        parent, offset, bounds = tree.parent, tree.offset, tree.bounds
        nodes = None if at is None else self._ancestors(at)
        if nodes is not None and nodes.size < self.n:
            pos = np.zeros(self.n, dtype=np.intp)
            pos[nodes] = np.arange(nodes.size)
            parent, offset, at = pos[tree.parent[nodes]], tree.offset[nodes], pos[at]
            bounds = np.searchsorted(nodes, tree.bounds).tolist()
        width = bounds[-1]
        out = np.empty((seeds.size, self.n if at is None else at.size), dtype=np.int32)
        block = max(1, _CHUNK_ROWS // width)
        for top in range(0, seeds.size, block):
            chunk = seeds[top : top + block]
            w = out[top : top + block] if at is None else np.empty((chunk.size, width), np.int32)
            w[:, 0] = chunk
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                w[:, lo:hi] = steps.take(offset[lo:hi] + w[:, parent[lo:hi]])
            if at is not None:
                out[top : top + block] = w[:, at]
        return out

    def _ancestors(self, cols: np.ndarray) -> np.ndarray:
        """The tree positions of `cols` and of all their ancestors, 0 included, ascending.

        parent[t] < t, so one pass over the layers, last first, marks each
        layer's parents before their own layer is read.
        """
        tree = self._tree
        keep = np.zeros(self.n, dtype=bool)
        keep[cols] = keep[0] = True
        for lo, hi in zip(tree.bounds[-2::-1], tree.bounds[:0:-1]):
            keep[tree.parent[lo:hi][keep[lo:hi]]] = True
        return np.flatnonzero(keep)

    def _checked(self, idx) -> np.ndarray:
        """`idx` as a flat index array; an entry outside 0..n-1 raises IndexError."""
        idx = np.asarray(idx, dtype=np.intp).ravel()
        if idx.size and not (0 <= idx.min() and idx.max() < self.n):
            raise IndexError(f"element index out of range for {self.label}")
        return idx

    def left_translates(self, a, cols=None) -> np.ndarray:
        """out[i, x] = index of a_i * x (of a_i * cols[x]), int32.

        Shape (len(a), n), or (len(a), len(cols)) given `cols`, whose
        ancestors alone are walked.  a_i x_t = (a_i x_parent) g, so each
        layer is one gather from the generator tables; no image row is
        resolved.
        """
        return self._tree_walk(a, self._tree.right, cols)

    def right_translates(self, f, cols=None) -> np.ndarray:
        """out[i, x] = index of x * f_i (of cols[x] * f_i), int32.

        Shape (len(f), n), or (len(f), len(cols)) given `cols`.
        x_t^-1 f_i = g^-1 (x_parent^-1 f_i) fills the tree, and x f_i is
        read at x^-1, so the walk keeps the ancestors of the inverses of
        `cols`; no image row is resolved.  The table of
        g^-1 y = (y^-1 g)^-1 is formed from `right` on first use and cached.
        """
        inv = self.inverse_of
        if self._left_inv is None:
            self._left_inv = inv[self._tree.right.reshape(-1, self.n)[:, inv]].ravel()
        return self._tree_walk(f, self._left_inv, inv if cols is None else inv[self._checked(cols)])

    def division_table(self) -> np.ndarray:
        """dt[g, h] = index of g^-1 * h.  Cached; quadratic memory."""
        if self._division_table is None:
            self._division_table = self.left_translates(self.inverse_of)
        return self._division_table

    def cyclic_cosets(self) -> np.ndarray:
        """idx[r, i] = index of x^i t_r, shape (n/m, m).  Cached.

        x is the first element of the largest order m, and t_r runs over the
        smallest index of each right coset <x> t, ascending, so row 0 is <x>.
        """
        if self._cyclic_cosets is None:
            orders = _orders_of_rows(self.perms)
            x = int(np.argmax(orders))
            powers = [self.identity]
            for _ in range(int(orders[x]) - 1):
                powers.append(self.mul(x, powers[-1]))
            # orbit[i, g] = x^i g: column g lists the coset <x> g
            orbit = self.left_translates(powers)
            firsts = np.flatnonzero(orbit.min(axis=0) == np.arange(self.n))
            self._cyclic_cosets = np.ascontiguousarray(orbit[:, firsts].T)
        return self._cyclic_cosets

    def coset_positions(self) -> np.ndarray:
        """pos[g] = r m + i when g = x^i t_r over `cyclic_cosets`, int32.  Cached.

        The inverse of `cyclic_cosets` read row by row: n entries.
        """
        if self._coset_positions is None:
            pos = np.empty(self.n, dtype=np.int32)
            pos[self.cyclic_cosets().ravel()] = np.arange(self.n, dtype=np.int32)
            self._coset_positions = pos
        return self._coset_positions

    def coset_quotients(self) -> np.ndarray:
        """q[r, s, d] = index of t_r^-1 x^d t_s over `cyclic_cosets`.  Cached.

        The division-table rows of the coset representatives, read in coset
        order: n^2/m entries, where the table has n^2.
        """
        if self._coset_quotients is None:
            idx = self.cyclic_cosets()
            self._coset_quotients = self.left_translates(self.inverse_of[idx[:, 0]]).take(idx, axis=1)
        return self._coset_quotients

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, n={self.n}, degree={self.degree})"


def _key_constants(degree: int) -> np.ndarray:
    """One odd 64-bit constant per point: splitmix64 outputs from state 0, low bit set.

    A row's key is its dot product with these, mod 2^64.  Pure Python, so
    building a group imports no `numpy.random`.
    """
    mask, state, out = (1 << 64) - 1, 0, []
    for _ in range(degree):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31) | 1)
    return np.array(out, dtype=np.uint64)


def closure(
    generators: Sequence[Permutation],
    cap: int = DEFAULT_ORDER_CAP,
    label: str = "closure",
    characteristic: Optional[int] = None,
    field_order: Optional[int] = None,
    simple: bool = False,
) -> FiniteGroup:
    """BFS closure of a generator list under right multiplication.

    Elements are discovered in breadth-first order, identity first, with the
    generators applied in the given order; this fixes the canonical element
    indexing for everything downstream.

    The BFS goes one layer at a time.  Each row has a 64-bit key, its dot
    product with `_key_constants` mod 2^64, and the key of x*g is x's row
    dotted with the constants permuted by g^-1, so the frontier's products
    are keyed in blocks of _CHUNK_ROWS entries without forming them.  The
    next layer is the first occurrence, frontier-major and generator-minor,
    of each key not seen before; only those rows are formed.  Keys can
    collide, so before returning, the base index of the rows is built and
    every element times every generator is looked up in it by its base
    images, x[g_j[base]], and compared in full with the row found.  Distinct
    keys mean distinct rows, and a set that holds the identity and is closed
    under the generators is the whole group; a product that the index does
    not find, or that differs from the row it finds, raises KeyCollision.
    A group of order above `cap` raises CapExceeded.

    The BFS records each element's parent and generator slot as it meets
    it, and the certificate's lookups are the table of every x * g_j, so
    the group gets its spanning tree (`_SpanningTree`) and its base index
    (`_BaseIndex`) without a second search.
    """
    if not generators:
        generators = []
        degree = 1
    else:
        degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise NotBijective("generators must share one degree")
    k = len(generators)
    gens = np.array([g.images for g in generators], dtype=np.int32).reshape(k, degree)
    consts = _key_constants(degree)
    # step[y, j] = consts[g_j^-1(y)]: key(x * g_j) = sum_y x(y) step[y, j]
    step = consts[np.argsort(gens, axis=1)].T
    block = max(1, _CHUNK_ROWS // max(1, k * degree))

    frontier = np.arange(degree, dtype=np.int32)[None, :]
    layers = [frontier]
    # x_t = x_parent[t] * g_slot[t]; the root is its own parent
    parents, slots, bounds = [np.zeros(1, np.intp)], [np.zeros(1, np.intp)], [1]
    seen = frontier.astype(np.uint64) @ consts
    total = 1
    while len(frontier):
        key_parts, pos_parts = [], []
        for start in range(0, len(frontier), block):
            keys = (frontier[start:start + block].astype(np.uint64) @ step).ravel()
            keys, first = np.unique(keys, return_index=True)
            fresh = seen[np.minimum(np.searchsorted(seen, keys), len(seen) - 1)] != keys
            key_parts.append(keys[fresh])
            pos_parts.append(first[fresh] + start * k)
        # blocks run in frontier order, so a key's first entry is its first product
        new_keys, first = np.unique(np.concatenate(key_parts), return_index=True)
        if total + len(new_keys) > cap:
            raise CapExceeded(f"closure exceeded cap of {cap} elements")
        pos = np.concatenate(pos_parts)[first]
        order = np.argsort(pos)
        row, slot = np.divmod(pos[order], k)
        parents.append(total - len(frontier) + row)
        slots.append(slot)
        frontier = np.take_along_axis(frontier[row], gens[slot], axis=1)
        layers.append(frontier)
        seen = np.insert(seen, np.searchsorted(seen, new_keys), new_keys)
        total += len(row)
        bounds.append(total)

    perms = np.concatenate(layers)
    index = _base_index(perms)
    # (x g_j)(b) = x(g_j(b)): plane i of the products' base images reads x at g_j(base[i])
    at = gens[:, index.base].T
    right = np.empty((k, total), dtype=np.int32)
    for start in range(0, total, block):
        rows = perms[start:start + block]
        # the block's columns, copied contiguous so that each plane is one row gather
        found = index.find(rows.T.copy()[at])
        if (found < 0).any() or not (perms[found.T] == rows[:, gens]).all():
            raise KeyCollision(f"{label}: a product matches no enumerated row")
        right[:, start:start + block] = found
    tree = _SpanningTree(
        parent=np.concatenate(parents).astype(np.int32),
        offset=(np.concatenate(slots) * total).astype(np.int32),
        bounds=bounds[:-1],  # the last layer is empty
        right=right.ravel(),
    )
    return FiniteGroup(
        perms,
        label=label,
        tree=tree,
        index=index,
        characteristic=characteristic,
        field_order=field_order,
        simple=simple,
    )


def closure_of_order(
    make_generators: Callable[[], Sequence[Permutation]],
    order: int, cap: int, label: str, **meta,
) -> FiniteGroup:
    """The closure of `make_generators()`, a group known to have `order`.

    An order above `cap` is refused before the generators are made; `meta`
    goes on to `closure`.
    """
    if order > cap:
        raise CapExceeded(f"{label} has order {order} > cap {cap}")
    group = closure(make_generators(), cap=order + 1, label=label, **meta)
    if group.n != order:
        raise NormGrowthError(f"{label} closure gave {group.n}, want {order}")
    return group


def _factorial(m: int, cap: int, label: str) -> int:
    """m!, or CapExceeded on m alone when m > cap.

    The group's order is at least m, and forming m! takes time that grows
    with m, so a huge m is refused before its factorial is formed.
    """
    if m > cap:
        raise CapExceeded(f"{label} has order at least {m} > cap {cap}")
    return math.factorial(m)


def build_symmetric(m: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The symmetric group on m >= 2 points."""
    if m < 2:
        raise ParseError(f"symmetric group needs at least 2 points, got {m}")
    order = _factorial(m, cap, f"S{m}")
    cycles = [(0, 1)] + ([tuple(range(m))] if m > 2 else [])
    return closure_of_order(
        lambda: [Permutation.from_cycles([c], m) for c in cycles], order, cap, f"S{m}"
    )


def build_alternating(m: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The alternating group on m >= 2 points."""
    if m < 2:
        raise ParseError(f"alternating group needs at least 2 points, got {m}")
    if m == 2:
        # the trivial group, generated by the identity on two points
        order, cycles = 1, [()]
    else:
        order = _factorial(m, cap, f"A{m}") // 2
        # (0 1 2) and, past A3, an odd-length cycle: all m points or the m - 1 past 0
        cycles = [(0, 1, 2)]
        if m > 3:
            cycles.append(tuple(range(m)) if m % 2 == 1 else tuple(range(1, m)))
    return closure_of_order(
        lambda: [Permutation.from_cycles([c], m) for c in cycles],
        order, cap, f"A{m}", simple=m >= 5,
    )


# -- conjugacy classes -----------------------------------------------------


@dataclass(frozen=True)
class ClassTable:
    """Conjugacy-class partition of a group, classes sorted by (size, rep)."""

    group: FiniteGroup
    class_of: np.ndarray          # (n,) class index per element
    classes: tuple[np.ndarray, ...]  # element indices per class, ascending
    sizes: np.ndarray             # (k,) class sizes
    reps: np.ndarray              # (k,) smallest element index per class
    inverse_class: np.ndarray     # (k,) class of the inverse
    is_real: np.ndarray           # (k,) class equals its inverse class
    rep_orders: np.ndarray        # (k,) element order of each representative
    # (k, k, k) class multiplication tensor, kept by chartable.class_tensor
    tensor: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    # (k,) centralizer orders of the reps, kept by certify_classes; a copy made
    # with dataclasses.replace starts without them, so it is certified afresh
    centralizer_orders: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    # spectral.class_characters, kept on first use; a copy made with
    # dataclasses.replace starts without it, so its characters are built afresh
    spectrum: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_classes(self) -> int:
        return len(self.sizes)

    def mask_of_classes(self, indices: Iterable[int]) -> np.ndarray:
        mask = np.zeros(self.group.n, dtype=bool)
        for i in indices:
            mask[self.classes[int(i)]] = True
        return mask


def compute_classes(group: FiniteGroup) -> ClassTable:
    """Partition the group into conjugacy classes by label propagation.

    Each element starts labelled by its own index.  Each round takes the
    minimum label over its generator conjugates, then follows every label to
    its own label.  At the fixed point every element carries the smallest
    index of its class, its representative.
    """
    n = group.n
    conj = np.array(group.generator_conjugation_maps(), dtype=np.intp).reshape(-1, n)
    label, prev = np.arange(n), None
    while not np.array_equal(label, prev):
        prev = label
        label = np.minimum(label, label[conj].min(axis=0, initial=n))
        label = label[label]
    reps, inverse, sizes = np.unique(label, return_inverse=True, return_counts=True)
    order = np.lexsort((reps, sizes))
    reps, sizes = reps[order], sizes[order]
    class_of = np.argsort(order)[inverse]
    classes = tuple(np.split(np.argsort(class_of, kind="stable"), np.cumsum(sizes)[:-1]))
    inverse_class = class_of[group.inverse_of[reps]]
    is_real = inverse_class == np.arange(len(classes))
    rep_orders = _orders_of_rows(group.perms[reps])
    if sizes[0] != 1 or reps[0] != 0:
        raise NormGrowthError("identity class must come first")
    return ClassTable(
        group=group,
        class_of=class_of,
        classes=classes,
        sizes=sizes,
        reps=reps,
        inverse_class=inverse_class,
        is_real=is_real,
        rep_orders=rep_orders,
    )


def certify_classes(ct: ClassTable) -> np.ndarray:
    """The centralizer orders of ct's representatives, once ct's blocks are certified.

    The blocks must be the classes listed in `classes`, with `sizes` and
    `reps` their sizes and members.  Each block must be closed under
    conjugation by every generator, so it is a union of classes and holds
    the class of its representative r_c, and |C_c| |C_G(r_c)| = n must hold,
    so it is exactly that class (orbit-stabiliser).  Certified on first use
    and then kept on ct, as `chartable.class_tensor` keeps the tensor; a
    failure raises ClassPartitionError.
    """
    if ct.centralizer_orders is None:
        group, k = ct.group, ct.n_classes
        if not (
            np.array_equal([c.size for c in ct.classes], ct.sizes)
            and np.array_equal(np.concatenate(ct.classes), np.argsort(ct.class_of, kind="stable"))
            and np.array_equal(ct.class_of[ct.reps], np.arange(k))
        ):
            raise ClassPartitionError(
                f"{group.label}: classes, sizes and reps do not match class_of"
            )
        for cmap in group.generator_conjugation_maps():
            moved = np.flatnonzero(ct.class_of[cmap] != ct.class_of)
            if moved.size:
                raise ClassPartitionError(
                    f"{group.label}: block {int(ct.class_of[moved[0]])} is not closed "
                    "under conjugation"
                )
        orders = group.centralizer_orders(ct.reps)
        wrong = np.flatnonzero(ct.sizes * orders != group.n)
        if wrong.size:
            c = int(wrong[0])
            raise ClassPartitionError(
                f"{group.label}: block {c} has {int(ct.sizes[c])} elements, but its "
                f"representative's class has n / |C_G(r)| = {group.n} / {int(orders[c])}"
            )
        # a function of ct's own fields, so caching it on the frozen table is safe
        object.__setattr__(ct, "centralizer_orders", orders)
    return ct.centralizer_orders


# -- real / coprime-order census --------------------------------------------


@dataclass(frozen=True)
class RealReport:
    """Census of classes fixed by inversion.

    An element counts as coprime-order (often called semisimple in the
    matrix-group setting) when its order is coprime to the group's defining
    characteristic.
    """

    label: str
    n: int
    n_classes: int
    real_classes: int
    real_elements: int
    non_real_classes: tuple[int, ...]
    characteristic: Optional[int]
    coprime_order_classes: Optional[tuple[int, ...]]
    non_real_coprime_order_classes: Optional[tuple[int, ...]]

    @property
    def real_element_fraction(self) -> float:
        return self.real_elements / self.n


def real_census(ct: ClassTable) -> RealReport:
    """Count real classes/elements; filter by coprime order when p is known."""
    group = ct.group
    real = ct.is_real
    non_real = tuple(int(i) for i in np.flatnonzero(~real))
    coprime: Optional[tuple[int, ...]] = None
    non_real_coprime: Optional[tuple[int, ...]] = None
    p = group.characteristic
    if p is not None:
        cop_mask = np.array([o % p != 0 for o in ct.rep_orders])
        coprime = tuple(int(i) for i in np.flatnonzero(cop_mask))
        non_real_coprime = tuple(
            int(i) for i in np.flatnonzero(cop_mask & ~real)
        )
    return RealReport(
        label=group.label,
        n=group.n,
        n_classes=ct.n_classes,
        real_classes=int(real.sum()),
        real_elements=int(ct.sizes[real].sum()),
        non_real_classes=non_real,
        characteristic=p,
        coprime_order_classes=coprime,
        non_real_coprime_order_classes=non_real_coprime,
    )


# -- word images -------------------------------------------------------------

_LETTER_VAR = {"x": (0, 1), "X": (0, -1), "y": (1, 1), "Y": (1, -1)}


def parse_word(text: str) -> list[tuple[int, int]]:
    """Parse a word over {x, y, X, Y} into (variable, sign) letters.

    Capital letters are inverses.  The word is freely reduced; a word that
    reduces to nothing raises EmptyWord.
    """
    if not text:
        raise EmptyWord("empty word")
    letters: list[tuple[int, int]] = []
    for ch in text:
        if ch not in _LETTER_VAR:
            raise ParseError(f"bad letter {ch!r} in word {text!r}")
        var, sign = _LETTER_VAR[ch]
        if letters and letters[-1] == (var, -sign):
            letters.pop()
        else:
            letters.append((var, sign))
    if not letters:
        raise EmptyWord(f"word {text!r} reduces to the empty word")
    return letters


def word_image(ct: ClassTable, word: str) -> np.ndarray:
    """Boolean mask of the image of the word map w(x, y) over G x G.

    g w(x, y) g^-1 = w(g x g^-1, g y g^-1), so the image is a union of
    classes, and each (x, y) is conjugate to a pair whose x is a class
    representative.  So x runs over `ct.reps` and y over G, k n evaluations
    (k for a word in one variable), and the image is the union of the
    classes met.  That rests on the class partition, so `ct` is certified
    first.
    """
    certify_classes(ct)
    group = ct.group
    letters = parse_word(word)
    # the first variable of the word on the representatives, the second on G
    remap = {v: i for i, v in enumerate(sorted({var for var, _ in letters}))}
    args = (ct.reps[:, None], np.arange(group.n))
    inv = group.inverse_of
    w = group.identity
    for var, sign in letters:
        x = args[remap[var]]
        w = group.mul(w, x if sign > 0 else inv[x])
    met = np.zeros(ct.n_classes, dtype=bool)
    met[ct.class_of[w]] = True
    return met[ct.class_of]


# -- cycle-notation parsing (generator files) --------------------------------


def parse_cycle_line(line: str) -> list[tuple[int, ...]]:
    """Parse one line of whitespace-separated cycles like "(0 1 2) (3 4)"."""
    cycles: list[tuple[int, ...]] = []
    rest = line.strip()
    while rest:
        if not rest.startswith("("):
            raise ParseError(f"expected '(' in cycle line {line!r}")
        close = rest.find(")")
        if close < 0:
            raise ParseError(f"unbalanced parentheses in {line!r}")
        body = rest[1:close].replace(",", " ").split()
        try:
            cyc = tuple(int(tok) for tok in body)
        except ValueError as exc:
            raise ParseError(f"bad point in cycle line {line!r}") from exc
        if not cyc:
            raise ParseError(f"empty cycle in {line!r}")
        cycles.append(cyc)
        rest = rest[close + 1 :].strip()
    if not cycles:
        raise ParseError(f"no cycles on line {line!r}")
    return cycles


def generators_from_text(text: str) -> list[Permutation]:
    """Parse generator permutations, one cycle-notation line each."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("generator file has no generator lines")
    parsed = [parse_cycle_line(ln) for ln in lines]
    degree = 1 + max(pt for cycles in parsed for cyc in cycles for pt in cyc)
    return [Permutation.from_cycles(cycles, degree) for cycles in parsed]
