"""Projective special linear groups as permutation groups.

Fields GF(p^e) use an explicit polynomial representation with a hard-coded
irreducible per supported size; elements are encoded as integers 0..q-1 via
base-p digits of the coefficient vector.  The groups act on projective
points, and the permutation group generated by transvections is exactly the
projective image (scalars act trivially).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import NormGrowthError, NotPrimePower, UnsupportedPrimePower
from .permgroup import DEFAULT_ORDER_CAP, FiniteGroup, Permutation, closure_of_order

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
    # the smallest divisor above 1 is prime; q must be a power of it
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e = next(k for k in itertools.count(1) if p**k >= q)
    if p**e != q:
        raise NotPrimePower(f"{q} is not a prime power")
    return p, e


class GF:
    """Arithmetic tables for GF(q), elements encoded as 0..q-1.

    Multiplying by a acts on coefficient vectors as sum_i digit_i(a) C^i mod p,
    with C the companion matrix of the irreducible on file (of t if e = 1).
    """

    def __init__(self, q: int):
        p, e = _factor_prime_power(q)
        self.q, self.p, self.e = q, p, e
        if e > 1 and q not in _IRREDUCIBLE:
            raise UnsupportedPrimePower(f"GF({q}) has no irreducible on file")
        # C sends t^j to t^(j+1), and t^(e-1) to t^e: minus the irreducible's lower terms
        companion = np.eye(e, k=-1, dtype=np.int64)
        companion[:, -1] = -np.array(_IRREDUCIBLE.get(q, [0, 1])[:e]) % p
        powers = np.array([np.linalg.matrix_power(companion, i) % p for i in range(e)])
        radix = p ** np.arange(e)
        digits = np.arange(q)[:, None] // radix % p
        self.add = (digits[:, None] + digits) % p @ radix
        self.mul = np.einsum("ai,ijk,bk->abj", digits, powers, digits) % p @ radix
        self.neg = -digits % p @ radix
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            hits = np.flatnonzero(self.mul[a] == 1)
            if hits.size != 1:
                raise NormGrowthError(f"GF({q}): {a} has {hits.size} inverses")
            inv[a] = hits[0]
        self.inv = inv

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


def _projective_points(d: int, q: int) -> list[tuple[int, ...]]:
    """Points of P^(d-1)(GF(q)) with the last nonzero coordinate 1.

    Grouped by the position of that coordinate, lowest first; within a group
    the first coordinate varies fastest: [1:0], [x:1] on the line and
    [1:0:0], [x:1:0], [x:y:1] on the plane.
    """
    return [
        free[::-1] + (1,) + (0,) * (d - 1 - k)
        for k in range(d)
        for free in itertools.product(range(q), repeat=k)
    ]


def _matrix_permutation(
    gf: GF, points: list[tuple[int, ...]], mat: list[list[int]]
) -> Permutation:
    """Permutation of `points` induced by the matrix, v -> mat v, normalized."""
    lookup = {pt: i for i, pt in enumerate(points)}
    images = []
    for pt in points:
        out = []
        for row in mat:
            acc = 0
            for a, x in zip(row, pt):
                acc = int(gf.add[acc, gf.mul[a, x]])
            out.append(acc)
        w = int(gf.inv[next(v for v in reversed(out) if v)])
        images.append(lookup[tuple(int(gf.mul[v, w]) for v in out)])
    return Permutation(images)


def build_psl(d: int, q: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """PSL(d, q) acting on the (q^d - 1)/(q - 1) points of P^(d-1)(GF(q)).

    Generated by the transvections I + alpha E_ij, i != j, with alpha over
    1, gamma, ..., gamma^(e-1) for a primitive gamma of GF(p^e).
    """
    p, e = _factor_prime_power(q)
    if d == 2 and q < 4:
        # PSL(2, 2) and PSL(2, 3) are solvable
        raise UnsupportedPrimePower(f"PSL(2, q) needs q >= 4, got {q}")
    order = q ** (d * (d - 1) // 2) * math.prod(q**i - 1 for i in range(2, d + 1))
    order //= math.gcd(d, q - 1)

    def transvections() -> list[Permutation]:
        gf = GF(q)
        gamma = gf.primitive_element()
        points = _projective_points(d, q)
        gens = []
        for i, j in itertools.permutations(range(d), 2):
            alpha = 1
            for _ in range(e):
                mat = [[int(r == c) for c in range(d)] for r in range(d)]
                mat[i][j] = alpha
                gens.append(_matrix_permutation(gf, points, mat))
                alpha = int(gf.mul[alpha, gamma])
        return gens

    return closure_of_order(
        transvections, order, cap, f"PSL({d},{q})",
        characteristic=p, field_order=q, simple=True,
    )


def build_psl2(q: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """PSL(2, q) acting on the q+1 points of the projective line."""
    return build_psl(2, q, cap)


def build_psl3(q: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """PSL(3, q) acting on the q^2+q+1 points of the projective plane."""
    return build_psl(3, q, cap)
