"""Projective special linear groups as permutation groups.

Fields GF(p^e) use an explicit polynomial representation with a hard-coded
irreducible per supported size; elements are encoded as integers 0..q-1 via
base-p digits of the coefficient vector.  The groups act on projective
points, and the permutation group generated by transvections is exactly the
projective image (scalars act trivially).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded, NormGrowthError, NotPrimePower
from .permgroup import DEFAULT_ORDER_CAP, FiniteGroup, Permutation, closure

# monic irreducibles over GF(p), little-endian coefficient lists (constant first)
_IRREDUCIBLE = {
    4: [1, 1, 1],          # t^2 + t + 1 over GF(2)
    8: [1, 1, 0, 1],       # t^3 + t + 1
    9: [2, 2, 1],          # t^2 + 2t + 2 over GF(3)
    16: [1, 1, 0, 0, 1],   # t^4 + t + 1
    25: [2, 4, 1],         # t^2 + 4t + 2 over GF(5)
    27: [1, 2, 0, 1],      # t^3 + 2t + 1 over GF(3)
}


def _factor_prime_power(q: int) -> tuple[int, int]:
    """q = p^e with p prime, else NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if p * p > q:
            return q, 1  # q itself prime
        if q % p == 0:
            e = 0
            rest = q
            while rest % p == 0:
                rest //= p
                e += 1
            if rest != 1:
                raise NotPrimePower(f"{q} is not a prime power")
            return p, e
    raise NotPrimePower(f"{q} is not a prime power")


class GF:
    """Arithmetic tables for GF(q), elements encoded as 0..q-1."""

    def __init__(self, q: int):
        p, e = _factor_prime_power(q)
        self.q, self.p, self.e = q, p, e
        if e > 1 and q not in _IRREDUCIBLE:
            raise NotPrimePower(f"GF({q}) has no irreducible on file")
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            for b in range(q):
                add[a, b] = self._encode(self._poly_add(self._digits(a), self._digits(b)))
                mul[a, b] = self._encode(self._poly_mul(self._digits(a), self._digits(b)))
        self.add, self.mul = add, mul
        self.neg = np.array(
            [self._encode([(-c) % p for c in self._digits(a)]) for a in range(q)],
            dtype=np.int64,
        )
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            hits = np.flatnonzero(mul[a] == 1)
            if hits.size != 1:
                raise NormGrowthError(f"GF({q}): {a} has {hits.size} inverses")
            inv[a] = hits[0]
        self.inv = inv

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, coeffs: list[int]) -> int:
        val = 0
        for c in reversed(coeffs[: self.e]):
            val = val * self.p + (c % self.p)
        return val

    def _poly_add(self, a: list[int], b: list[int]) -> list[int]:
        return [(x + y) % self.p for x, y in zip(a, b)]

    def _poly_mul(self, a: list[int], b: list[int]) -> list[int]:
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        if self.e == 1:
            return prod[:1]
        red = _IRREDUCIBLE[self.q]
        # reduce modulo the monic irreducible
        for top in range(len(prod) - 1, self.e - 1, -1):
            c = prod[top]
            if c == 0:
                continue
            prod[top] = 0
            for k in range(self.e):
                prod[top - self.e + k] = (prod[top - self.e + k] - c * red[k]) % self.p
        return prod[: self.e]

    def primitive_element(self) -> int:
        """Smallest element of multiplicative order q-1."""
        for a in range(2, self.q):
            x, order = a, 1
            while x != 1:
                x = int(self.mul[x, a])
                order += 1
            if order == self.q - 1:
                return a
        return 1  # q == 2


def _psl2_order(q: int) -> int:
    return q * (q * q - 1) // math.gcd(2, q - 1)


def _psl3_order(q: int) -> int:
    return q ** 3 * (q ** 3 - 1) * (q ** 2 - 1) // math.gcd(3, q - 1)


def _projective_line(gf: GF) -> list[tuple[int, int]]:
    """Point 0 is [1:0]; point 1+x is [x:1] in field-element order."""
    return [(1, 0)] + [(x, 1) for x in range(gf.q)]


def _mobius_permutation(gf: GF, mat: tuple[int, int, int, int]) -> Permutation:
    """Permutation of the projective line induced by [[a,b],[c,d]]."""
    a, b, c, d = mat
    points = _projective_line(gf)
    lookup = {pt: i for i, pt in enumerate(points)}
    images = []
    for x, y in points:
        nx = int(gf.add[gf.mul[a, x], gf.mul[b, y]])
        ny = int(gf.add[gf.mul[c, x], gf.mul[d, y]])
        if ny != 0:
            w = int(gf.inv[ny])
            images.append(lookup[(int(gf.mul[nx, w]), 1)])
        else:
            images.append(lookup[(1, 0)])
    return Permutation(images)


def build_psl2(q: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """PSL(2, q) acting on the q+1 points of the projective line."""
    p, e = _factor_prime_power(q)
    if q < 4:
        raise NotPrimePower(f"q must be a prime power >= 4, got {q}")
    order = _psl2_order(q)
    if order > cap:
        raise CapExceeded(f"PSL(2,{q}) has order {order} > cap {cap}")
    gf = GF(q)
    gamma = gf.primitive_element()
    gens = []
    alpha = 1
    for _ in range(e):
        gens.append(_mobius_permutation(gf, (1, alpha, 0, 1)))
        alpha = int(gf.mul[alpha, gamma])
    alpha = 1
    for _ in range(e):
        gens.append(_mobius_permutation(gf, (1, 0, alpha, 1)))
        alpha = int(gf.mul[alpha, gamma])
    group = closure(
        gens,
        cap=order + 1,
        label=f"PSL(2,{q})",
        characteristic=p,
        field_order=q,
        simple=True,
    )
    if group.n != order:
        raise NormGrowthError(f"PSL(2,{q}) closure gave {group.n}, want {order}")
    return group


def _projective_plane(gf: GF) -> list[tuple[int, int, int]]:
    """q^2+q+1 points with the last nonzero coordinate normalized to 1."""
    pts = [(1, 0, 0)]
    pts += [(x, 1, 0) for x in range(gf.q)]
    pts += [(x, y, 1) for y in range(gf.q) for x in range(gf.q)]
    return pts


def _plane_permutation(gf: GF, mat: tuple[tuple[int, ...], ...]) -> Permutation:
    points = _projective_plane(gf)
    lookup = {pt: i for i, pt in enumerate(points)}
    images = []
    for pt in points:
        out = [0, 0, 0]
        for i in range(3):
            acc = 0
            for j in range(3):
                acc = int(gf.add[acc, gf.mul[mat[i][j], pt[j]]])
            out[i] = acc
        # normalize the last nonzero coordinate to 1
        for k in (2, 1, 0):
            if out[k] != 0:
                w = int(gf.inv[out[k]])
                out = [int(gf.mul[v, w]) for v in out]
                break
        images.append(lookup[tuple(out)])
    return Permutation(images)


def _elementary(gf: GF, i: int, j: int, alpha: int) -> tuple[tuple[int, ...], ...]:
    mat = [[1 if r == c else 0 for c in range(3)] for r in range(3)]
    mat[i][j] = alpha
    return tuple(tuple(row) for row in mat)


def build_psl3(q: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """PSL(3, q) acting on the q^2+q+1 points of the projective plane."""
    p, e = _factor_prime_power(q)
    order = _psl3_order(q)
    if order > cap:
        raise CapExceeded(f"PSL(3,{q}) has order {order} > cap {cap}")
    gf = GF(q)
    gamma = gf.primitive_element()
    gens = []
    for i, j in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
        alpha = 1
        for _ in range(e):
            gens.append(_plane_permutation(gf, _elementary(gf, i, j, alpha)))
            alpha = int(gf.mul[alpha, gamma])
    group = closure(
        gens,
        cap=order + 1,
        label=f"PSL(3,{q})",
        characteristic=p,
        field_order=q,
        simple=True,
    )
    if group.n != order:
        raise NormGrowthError(f"PSL(3,{q}) closure gave {group.n}, want {order}")
    return group
