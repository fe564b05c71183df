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
    "A:8": ("d7174d7a85cbc9256e6107875c7430f5b62802bf2471d183924af704fbbc397d", [1, 2]),
    "PSL2:16": ("9c821728376d266c1c438eb1230e98e7869eed2e52dbff1d2c4bc86dba246af7", [1, 2, 3, 4, 5, 6, 7, 8]),
    # degree 32, the largest degree the builders reach under the order cap
    "PSL2:31": ("5573b90ef034587ac3e84c151ffc1ce231366da7457d6887fcb66a40c0cbcbcc", [1, 2]),
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


# sha256 of the add, mul, neg and inv tables: element codes reach every
# generator of every PSL build, so a new table routine must keep them
GF_TABLES = {
    4: (
        "cd18db5001222f5aa2e67a2e1ec7bedb6c97259bc407ac0536383a96da99ee0d",
        "474cf06ceecdd9b03e3393a168cc7647d618e70ce2198a12bd3fc725fbf43a97",
        "a1e03200f1f82ad2c1cec8795c271aaecf98f5aa2d151d2229ec5fa0c177cf77",
        "92dd7580bfd5a67a2342dddbf0643461a14fd7473f351b80714fbcbdd4ea62b0",
    ),
    7: (
        "4f3ec518c1dfcfa28a7b0ab20620f40ac4afe010cb1afbced380587bab956a28",
        "9152747bdc6c526df8d068505ea79c2955e9708df163c7fe29d304334a5cbb22",
        "e01e040f9340fa47df7373e5230433a107e892e49a1ae5e5403a148a5e75f75e",
        "6d7df7044c16ffaa0cc18c96084c1ed196f82d81d192d70a1439080e8c0addd3",
    ),
    8: (
        "0c36cc322607a32c2601840aee7d820a15923b3392136668df7c8d17e989bd1d",
        "b4c2ddaec51f537d05ddb97b8c98d34fd459015c2542bd52d75be6cb17333385",
        "fece8d601cd4c9020e24f9e4a47feedefb2bceff5e9798d8056aea8700052eaa",
        "66db7a26447e604b22c6d42a76ea33c2ab08557a1ec5532fed723dbad4e0af88",
    ),
    9: (
        "86ac843ff1f14f5e253c6a868c1e724d099bd0dead8bc4ba455b694640caacfa",
        "83ac40f5f5daec2302ab100cf97fbc4e77215abc12ab8d6ea74968a6f6606a83",
        "0b567cf282f27d2063788aef2f163ff57c6cd63cc3a7cecb1dc5cec18af6bd58",
        "e44203fefce824ccc8ad352de45ca9c67a3a7aa1625900df98753f96b930f015",
    ),
    16: (
        "c23e73c80b6902c1670d2df346cd510da5d240bd407974e24df4a5817441102f",
        "b046715b8028e85995ded1d0c46fda22cb437f4139bac09ae950c835e1cb211b",
        "f23d672bb9b341f9afa8498423b75deb80e726145969391d4b9392464c2298ee",
        "a14948678523c4123459126aa2ee8ccb8ca729d253ac4bd66ca3ac988d8bd111",
    ),
    25: (
        "35ca85530c66b2ee7b5fd560bb93d1c67c150f676411d637d0683fd41fa1f3d8",
        "ec44b919f62706e6af025fc26044484c48bfe60149f0f7dddf7ffe80d61fbedd",
        "bb18c51471126f25ac7bdc4291b39180c87c764fcd7de012dd5ee1c0296f9d5c",
        "4a9dcc66f0a0b3bcd0eaa72a666a0af85eb5efe022f08842d852d888a3c87053",
    ),
    27: (
        "8a032eac974c725cbf23aacc99f03c332755dea9bc057d60e3d354e91c1d4011",
        "a1a7d8805ba20f94455139e4ce0c8eae5129d81e53dc63ad07519f93f453e8d5",
        "87cc86f3a55d8ee984e71f77dee35a977b3c276dfd27c5bc51a22cd7b4da6ae2",
        "ce2c2f61ad9e2e4fd259257fd3b441b9172f04d740dfe3e34d88c286cbb31902",
    ),
}


@pytest.mark.parametrize("q", sorted(GF_TABLES))
def test_field_tables_pinned(q):
    f = GF(q)
    tables = (f.add, f.mul, f.neg, f.inv)
    assert tuple(hashlib.sha256(t.tobytes()).hexdigest() for t in tables) == GF_TABLES[q]


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
