import hashlib
import math

import numpy as np
import pytest

from normgrowth.context import parse_group_spec
from normgrowth.errors import CapExceeded, NotPrimePower, UnsupportedPrimePower
from normgrowth.permgroup import build_alternating, compute_classes
from normgrowth.psl import GF, build_psl2, build_psl3


def psl2_order(q):
    return q * (q * q - 1) // math.gcd(2, q - 1)


def psl3_order(q):
    return q**3 * (q**3 - 1) * (q * q - 1) // math.gcd(3, q - 1)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 25, 27])
def test_psl2_orders(q):
    g = build_psl2(q)
    assert g.n == psl2_order(q)
    assert g.degree == q + 1
    assert g.field_order == q
    assert g.simple
    assert q % g.characteristic == 0


@pytest.mark.parametrize("q", [2, 3, 4])
def test_psl3_orders(q):
    g = build_psl3(q)
    assert g.n == psl3_order(q)
    assert g.degree == q * q + q + 1
    assert g.field_order == q


# sha256 of perms.tobytes() and the generator indices: every report body
# addresses elements by these BFS indices, so a new construction must keep them
ELEMENT_ORDER = {
    "S:5": ("4b81e29640714b12ee9bfdc65e00f35b478a374be4b56ff732297140cb1353bf", [1, 2]),
    "A:7": ("cc74b9f2ed42272fb6dd586c8d298a30f5ec6a4bd1922f579b7e81f1777ae791", [1, 2]),
    "PSL2:8": ("4401e749a7e36e47cc6855cb927b0a6628c363b23b1dcaa1cb98c154ec5aa5c1", [1, 2, 3, 4, 5, 6]),
    "PSL2:9": ("928c30ce9429e181e9bb156fac8517b0c1e3ab880dbfcf19a6691f813a1f4722", [1, 2, 3, 4]),
    "PSL2:11": ("de54d216ac4e2da5ae1ac118250ce4a8b6485b7d6d217de8148405343fb62835", [1, 2]),
    "PSL3:2": ("e0d23d25fd7af42d1ed598aafed54bd3097c015ccef776e716efbb82d1c1fa19", [1, 2, 3, 4, 5, 6]),
    "PSL3:3": ("b18fbc890e07f8eabb6c462de231650f6853e9006600a4814590842a095cd4ec", [1, 2, 3, 4, 5, 6]),
    "PSL3:4": (
        "525ca9d4c023ceb6fa949a292ff80e460540e3ba650fff5d9bf292a02ecfe019",
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
    ),
}


@pytest.mark.parametrize("spec", sorted(ELEMENT_ORDER))
def test_element_order_pinned(spec):
    g = parse_group_spec(spec)
    digest, gens = ELEMENT_ORDER[spec]
    assert hashlib.sha256(g.perms.tobytes()).hexdigest() == digest
    assert list(g.generators) == gens
    if spec.startswith("PSL"):
        d, q = int(spec[3]), int(spec[5:])
        assert g.degree == (q**d - 1) // (q - 1)
        # a transvection fixes exactly the points of a hyperplane
        fixed = (g.perms[list(g.generators)] == np.arange(g.degree)).sum(axis=1)
        assert fixed.tolist() == [(q ** (d - 1) - 1) // (q - 1)] * len(gens)


def test_psl2_rejects_bad_q():
    with pytest.raises(NotPrimePower):
        build_psl2(6)
    with pytest.raises(NotPrimePower):
        build_psl2(12)
    # q < 4 gives degenerate or solvable actions, rejected up front
    with pytest.raises(NotPrimePower):
        build_psl2(2)
    with pytest.raises(NotPrimePower):
        build_psl2(3)


def test_unsupported_prime_powers_are_told_apart():
    """q = 6 is no prime power; 32, 2 and 3 are, but have no builder."""
    for build in (GF, build_psl2):
        with pytest.raises(NotPrimePower) as exc:
            build(6)
        assert not isinstance(exc.value, UnsupportedPrimePower)
    with pytest.raises(UnsupportedPrimePower):
        GF(32)
    for q in (2, 3):
        with pytest.raises(UnsupportedPrimePower):
            build_psl2(q)


def test_psl_caps():
    with pytest.raises(CapExceeded):
        build_psl2(32, cap=25_000)
    with pytest.raises(CapExceeded):
        build_psl3(5, cap=25_000)


def test_psl2_4_and_5_match_a5_classes():
    want = sorted(compute_classes(build_alternating(5)).sizes.tolist())
    for q in (4, 5):
        got = sorted(compute_classes(build_psl2(q)).sizes.tolist())
        assert got == want == [1, 12, 12, 15, 20]


def test_psl27_class_structure(psl27):
    ct = psl27.classes
    assert sorted(ct.sizes.tolist()) == [1, 21, 24, 24, 42, 56]
    assert sorted(ct.rep_orders.tolist()) == [1, 2, 3, 4, 7, 7]


def test_psl33_classes():
    ct = compute_classes(build_psl3(3))
    assert ct.n_classes == 12
    assert ct.sizes.sum() == 5616


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_field_axioms(q):
    f = GF(q)
    # encoded elements: 0 is the zero polynomial, 1 the constant one
    for a in range(q):
        assert f.add[a, 0] == a
        assert f.mul[a, 1] == a
        if a != 0:
            assert f.mul[a, f.inv[a]] == 1
        assert f.add[a, f.neg[a]] == 0
    # distributivity, exhaustive
    for a in range(q):
        for b in range(q):
            for c in range(q):
                lhs = f.mul[a, f.add[b, c]]
                rhs = f.add[f.mul[a, b], f.mul[a, c]]
                assert lhs == rhs
    # associativity of multiplication, exhaustive
    for a in range(q):
        for b in range(q):
            for c in range(q):
                assert f.mul[f.mul[a, b], c] == f.mul[a, f.mul[b, c]]


@pytest.mark.parametrize("q", [4, 8, 9, 27])
def test_primitive_element(q):
    f = GF(q)
    gamma = f.primitive_element()
    seen = set()
    x = 1
    for _ in range(q - 1):
        seen.add(int(x))
        x = f.mul[x, gamma]
    assert len(seen) == q - 1
