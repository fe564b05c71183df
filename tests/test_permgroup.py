import functools
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRINT_PEAK_KB, run_child

from normgrowth import permgroup
from normgrowth.context import PROFILE_FULL, parse_group_spec
from normgrowth.errors import (
    CapExceeded,
    EmptyWord,
    KeyCollision,
    NotBijective,
    ParseError,
)
from normgrowth.permgroup import (
    _TABLE_ENTRIES,
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    Permutation,
    build_alternating,
    build_symmetric,
    certify_classes,
    closure,
    compute_classes,
    generators_from_text,
    parse_cycle_line,
    parse_word,
    real_census,
    word_image,
)

perm_images = st.permutations(list(range(6)))


def test_permutation_validation():
    Permutation((0, 1, 2))
    with pytest.raises(NotBijective):
        Permutation((0, 0, 2))
    with pytest.raises(NotBijective):
        Permutation((0, 3))
    with pytest.raises(NotBijective):
        Permutation(())


def test_permutation_composition_convention():
    # (p*q)(x) = p(q(x))
    p = Permutation.from_cycles([(0, 1)], 3)
    q = Permutation.from_cycles([(1, 2)], 3)
    assert (p * q).images == (1, 2, 0)
    assert (q * p).images == (2, 0, 1)


@given(perm_images, perm_images, perm_images)
def test_permutation_associativity(a, b, c):
    pa, pb, pc = Permutation(a), Permutation(b), Permutation(c)
    assert (pa * pb) * pc == pa * (pb * pc)


@given(perm_images)
def test_permutation_inverse_and_order(images):
    p = Permutation(images)
    ident = Permutation(range(6))
    assert p * p.inverse() == ident
    assert p.inverse() * p == ident
    # order = lcm of cycle lengths
    k = p.order()
    acc = ident
    for _ in range(k):
        acc = acc * p
    assert acc == ident
    assert k == math.lcm(*(len(c) for c in p.cycles()), 1)


@given(perm_images)
def test_permutation_cycles_roundtrip(images):
    p = Permutation(images)
    assert Permutation.from_cycles(p.cycles(), 6) == p


def test_closure_identity_only():
    g = closure([Permutation((0, 1, 2))], cap=10)
    assert g.n == 1
    assert g.perms.shape == (1, 3)


def test_closure_s3():
    gens = [Permutation.from_cycles([(0, 1, 2)], 3), Permutation.from_cycles([(0, 1)], 3)]
    g = closure(gens, cap=10)
    assert g.n == 6


def test_closure_a5_from_given_generators():
    gens = [
        Permutation.from_cycles([(0, 1, 2)], 5),
        Permutation.from_cycles([(0, 1, 2, 3, 4)], 5),
    ]
    assert closure(gens, cap=100).n == 60


def test_closure_cap():
    gens = [
        Permutation.from_cycles([(0, 1, 2)], 5),
        Permutation.from_cycles([(0, 1, 2, 3, 4)], 5),
    ]
    with pytest.raises(CapExceeded):
        closure(gens, cap=59)


def _reference_closure(generators, cap=DEFAULT_ORDER_CAP):
    """The per-element BFS that `closure` replaced: (perms, generator indices).

    One numpy row and one `bytes` key per product, in discovery order; the
    oracle for `closure`'s element order and generator indices.
    """
    degree = generators[0].degree if generators else 1
    gen_rows = [np.asarray(g.images, dtype=np.int32) for g in generators]
    ident = np.arange(degree, dtype=np.int32)
    rows, index = [ident], {ident.tobytes(): 0}
    head = 0
    while head < len(rows):
        current = rows[head]
        head += 1
        for grow in gen_rows:
            new = current[grow]
            key = new.tobytes()
            if key not in index:
                if len(rows) >= cap:
                    raise CapExceeded(f"closure exceeded cap of {cap} elements")
                index[key] = len(rows)
                rows.append(new)
    return np.vstack(rows), [index[r.tobytes()] for r in gen_rows]


def _closure_matching_reference(gens, cap=DEFAULT_ORDER_CAP):
    """closure(gens), after checking its perms bytes and generators against the reference."""
    perms, gen_idx = _reference_closure(gens, cap)
    g = closure(gens, cap=cap)
    assert g.perms.shape == perms.shape and g.perms.tobytes() == perms.tobytes()
    assert list(g.generators) == gen_idx
    return g


def test_closure_matches_the_reference_on_repeats_identities_and_trivial_lists():
    a = Permutation.from_cycles([(0, 1, 2)], 5)
    b = Permutation.from_cycles([(0, 1, 2, 3, 4)], 5)
    e = Permutation.identity(5)
    point = Permutation((0,))
    for gens in ([a, a, b], [e, a, e, b, a], [b, a, b]):
        assert _closure_matching_reference(gens).n == 60
    for gens in ([e], [e, e], [], [point], [point, point]):
        assert _closure_matching_reference(gens).n == 1


def test_closure_identity_first_and_unique():
    g = build_symmetric(4)
    assert (g.perms[0] == np.arange(4)).all()
    keys = {row.tobytes() for row in g.perms}
    assert len(keys) == g.n


@pytest.mark.parametrize("m,order", [(2, 2), (3, 6), (4, 24), (5, 120), (6, 720)])
def test_symmetric_orders(m, order):
    assert build_symmetric(m).n == order


@pytest.mark.parametrize("m,order", [(2, 1), (3, 3), (4, 12), (5, 60), (6, 360)])
def test_alternating_orders(m, order):
    assert build_alternating(m).n == order


def test_builder_caps():
    with pytest.raises(CapExceeded):
        build_symmetric(10)
    with pytest.raises(ParseError):
        build_alternating(1)
    with pytest.raises(ParseError):
        build_symmetric(1)
    assert build_alternating(5).simple
    assert not build_alternating(4).simple
    assert not build_symmetric(5).simple


def test_builders_refuse_a_huge_m_before_its_factorial(monkeypatch):
    def factorial(m):
        raise AssertionError(f"formed {m}!")

    monkeypatch.setattr(permgroup, "math", SimpleNamespace(factorial=factorial))
    for build in (build_symmetric, build_alternating):
        with pytest.raises(CapExceeded):
            build(10**6)


@pytest.mark.parametrize(
    "spec, cap",
    [("S:5", 100), ("A:6", 100), ("S:8", DEFAULT_ORDER_CAP), ("PSL2:7", 100), ("PSL3:2", 100)],
)
def test_parse_group_spec_caps_every_family(spec, cap):
    with pytest.raises(CapExceeded):
        parse_group_spec(spec, order_cap=cap)


def test_parse_group_spec_caps_generator_file(tmp_path):
    path = tmp_path / "s5.txt"
    path.write_text("(0 1)\n(0 1 2 3 4)\n")
    with pytest.raises(CapExceeded):
        parse_group_spec(str(path), order_cap=100)


def test_index_arithmetic_consistency():
    g = build_symmetric(5)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, g.n, size=50)
    for a, b in zip(idx[:25], idx[25:]):
        pa, pb = g.permutation(a), g.permutation(b)
        assert g.permutation(g.mul(a, b)) == pa * pb
        assert g.mul(a, g.inv(a)) == 0
    # broadcast products agree with scalar products
    tab = g.mul(idx[:5, None], idx[5:10])
    for i in range(5):
        for j in range(5):
            assert tab[i, j] == g.mul(int(idx[i]), int(idx[5 + j]))


def test_translations():
    g = build_symmetric(4)
    all_idx = np.arange(g.n)
    for h in (1, 5, 17):
        left = g.mul(h, all_idx)
        right = g.mul(all_idx, h)
        assert sorted(left) == list(all_idx)
        assert sorted(right) == list(all_idx)
        assert left[0] == h and right[0] == h


def a5_on(degree: int) -> FiniteGroup:
    """A:5 acting on {0..4}, fixing every other point below `degree`."""
    gens = [
        Permutation.from_cycles([(0, 1, 2)], degree),
        Permutation.from_cycles([(0, 1, 2, 3, 4)], degree),
    ]
    return closure(gens, cap=100)


# at this degree the images of A:5's three base points overflow the lookup table
PAST_TABLE = int(_TABLE_ENTRIES ** (1 / 3)) + 1


@pytest.mark.parametrize("degree", [6, PAST_TABLE], ids=["table", "sorted"])
def test_index_of_rejects_non_element(degree):
    g = a5_on(degree)
    row = np.arange(g.degree)
    row[[0, -1]] = row[[-1, 0]]  # no element of A:5 moves 0 past point 4
    with pytest.raises(KeyError):
        g.index_of(row)
    assert g.index_of(g.perms[7]).tolist() == [7]


def test_sorted_fallback_matches_permutations():
    g = a5_on(PAST_TABLE)
    assert g.degree ** len(g.base) > _TABLE_ENTRIES
    perm = [g.permutation(i) for i in range(g.n)]
    prods = g.mul(np.arange(g.n)[:, None], np.arange(g.n))
    for a in range(g.n):
        assert perm[g.inv(a)] == perm[a].inverse()
        for b in range(g.n):
            assert perm[prods[a, b]] == perm[a] * perm[b]


# the groups of test_psl.py::test_element_order_pinned, two small closures,
# and one group on the sorted-key fallback
TRANSLATE_GROUPS = {
    **{spec: (lambda spec=spec: parse_group_spec(spec))
       for spec in ("S:5", "A:7", "A:8", "PSL2:8", "PSL2:9", "PSL2:11", "PSL2:16", "PSL2:31",
                    "PSL3:2", "PSL3:3", "PSL3:4")},
    "trivial": lambda: closure([Permutation((0,))], cap=2),
    "C6": lambda: closure([Permutation.from_cycles([(0, 1, 2, 3, 4, 5)], 6)]),
    "sorted": lambda: a5_on(PAST_TABLE),
}


@pytest.mark.parametrize("name", sorted(TRANSLATE_GROUPS))
def test_translates_match_mul(name):
    g = TRANSLATE_GROUPS[name]()
    if name == "sorted":
        assert g._table is None
    rng = np.random.default_rng(7)
    idx = rng.integers(0, g.n, size=min(g.n, 20))
    all_idx = np.arange(g.n)
    left, right = g.left_translates(idx), g.right_translates(idx)
    assert left.dtype == right.dtype == np.int32
    assert np.array_equal(left, g.mul(idx[:, None], all_idx))
    assert np.array_equal(right, g.mul(all_idx, idx[:, None]))
    assert g.left_translates(idx[:0]).shape == (0, g.n)
    with pytest.raises(IndexError):
        g.left_translates([g.n])


def _column_sets(n: int, rng) -> dict:
    """Columns a restricted translate is asked for: every shape the kernel must take."""
    picked = rng.choice(n, size=max(1, n // 50), replace=False)
    return {
        "random": np.sort(picked),
        "unsorted": picked,
        "duplicated": np.concatenate([picked, picked[::-1], picked[:3]]),
        "empty": picked[:0],
        "identity": np.array([0]),
        "all": rng.permutation(n),
        # fewer than n columns whose ancestors are all of G
        "all-but-identity": np.arange(n - 1, 0, -1),
        "last-layer": np.array([n - 1, 0, n - 1]),
    }


@pytest.mark.parametrize("spec", PROFILE_FULL + ("A:8",))
def test_translates_by_column_are_columns_of_the_full_translates(spec):
    """`left_translates(a, cols)` and `right_translates(f, cols)` are columns of the full ones.

    Seeds are drawn at random with the identity among them; out-of-range
    columns raise instead of wrapping through the position map.
    """
    g = parse_group_spec(spec)
    rng = np.random.default_rng(11)
    seeds = np.concatenate([[0], rng.integers(0, g.n, size=5)])
    left, right = g.left_translates(seeds), g.right_translates(seeds)
    for name, cols in _column_sets(g.n, rng).items():
        for got, full in ((g.left_translates(seeds, cols), left), (g.right_translates(seeds, cols), right)):
            assert got.dtype == np.int32, name
            assert np.array_equal(got, full[:, cols]), name
    assert g.left_translates(seeds[:0], [1, 2]).shape == (0, 2)
    for bad in ([-1], [g.n], [0, g.n + 3]):
        with pytest.raises(IndexError):
            g.left_translates(seeds, bad)
        with pytest.raises(IndexError):
            g.right_translates(seeds, bad)


@pytest.mark.parametrize("spec", ("A:5", "PSL2:7", "PSL3:3"))
def test_ancestors_are_the_parent_closure(spec):
    """The walked elements: the columns, the root, their ancestors and nothing else."""
    g = parse_group_spec(spec)
    parent = g._tree.parent.tolist()
    rng = np.random.default_rng(5)
    for cols in _column_sets(g.n, rng).values():
        want = {0}
        for t in cols.tolist():
            while t not in want:
                want.add(t)
                t = parent[t]
        got = g._ancestors(cols)
        assert got.tolist() == sorted(want)
        assert set(parent[t] for t in got.tolist()) <= set(got.tolist())


@pytest.mark.parametrize("name", sorted(TRANSLATE_GROUPS))
def test_conjugation_maps_match_mul(name):
    """Each map x -> g x g^-1, read from the translates, is the `mul` form."""
    g = TRANSLATE_GROUPS[name]()
    all_idx = np.arange(g.n)
    maps = g.generator_conjugation_maps()
    assert len(maps) == len(g.generators)
    for gen, cmap in zip(g.generators, maps):
        assert cmap.dtype == np.int32
        assert np.array_equal(cmap, g.mul(g.mul(gen, all_idx), g.inv(gen)))


@pytest.mark.parametrize("name", sorted(TRANSLATE_GROUPS))
def test_closure_matches_the_reference(name):
    """The layered BFS gives the per-element BFS's element order, and stops at the cap."""
    g = TRANSLATE_GROUPS[name]()
    gens = [g.permutation(i) for i in g.generators]
    h = _closure_matching_reference(gens)
    assert h.perms.tobytes() == g.perms.tobytes()
    assert closure(gens, cap=h.n).n == h.n
    if h.n > 1:
        with pytest.raises(CapExceeded):
            closure(gens, cap=h.n - 1)


@pytest.mark.parametrize("name", sorted(TRANSLATE_GROUPS))
def test_closure_returns_its_spanning_tree(name):
    """The tree and right table that closure's BFS and certificate recorded.

    Element t is its parent times the generator in its slot, every layer's
    parents come before it, the right table is x * g_j through `mul`, and
    the generators are the identity's row of that table.
    """
    g = TRANSLATE_GROUPS[name]()
    tree, gens = g._tree, np.array(g.generators, dtype=np.intp)
    assert tree.parent.dtype == tree.offset.dtype == tree.right.dtype == np.int32
    t = np.arange(1, g.n)
    slot = tree.offset[t] // g.n
    assert np.array_equal(
        g.perms[t], np.take_along_axis(g.perms[tree.parent[t]], g.perms[gens[slot]], axis=1)
    )
    assert tree.bounds[0] == 1 and tree.bounds[-1] == g.n
    for lo, hi in zip(tree.bounds[:-1], tree.bounds[1:]):
        assert lo < hi and tree.parent[lo:hi].max() < lo
    right = tree.right.reshape(gens.size, g.n)
    assert np.array_equal(right, g.mul(np.arange(g.n), gens[:, None]))
    assert g.generators == tuple(right[:, 0].tolist())


# key constants that collide: with either one, the keys of the permutations of
# degree d take fewer values than each named group has elements, so the BFS
# must drop an element
_STEP = 0x9E3779B97F4A7C15
COLLIDING_KEYS = {
    "one-constant": lambda degree: np.full(degree, _STEP, dtype=np.uint64),
    "progression": lambda degree: np.arange(1, degree + 1, dtype=np.uint64) * np.uint64(_STEP),
}


@pytest.mark.parametrize("keys", sorted(COLLIDING_KEYS))
@pytest.mark.parametrize("spec", sorted(name for name in TRANSLATE_GROUPS if ":" in name))
def test_colliding_keys_never_return_a_group(monkeypatch, keys, spec):
    """Keys that collide drop elements from the BFS; the row-by-row certificate catches it."""
    monkeypatch.setattr(permgroup, "_key_constants", COLLIDING_KEYS[keys])
    with pytest.raises(KeyCollision):
        parse_group_spec(spec)


def test_colliding_keys_raise_under_python_O():
    """The certificate is a typed error, not an assert that -O strips."""
    script = (
        "import numpy as np\n"
        "from normgrowth import permgroup\n"
        "from normgrowth.context import parse_group_spec\n"
        "from normgrowth.errors import KeyCollision\n"
        f"permgroup._key_constants = lambda d: np.full(d, {_STEP}, dtype=np.uint64)\n"
        "try:\n"
        "    print('returned', parse_group_spec('PSL3:2').n)\n"
        "except KeyCollision:\n"
        "    print('KeyCollision', __debug__)\n"
    )
    assert run_child(script, "-O").split() == ["KeyCollision", "False"]


# peak RSS of a child building PSL3:4 (n = 20 160, degree 21, 12 generators):
# 39.9 MB with layered keys and the generator tables kept (38.4 MB without
# them), 42.9 MB for the per-element BFS, 69.8 MB for a BFS that formed whole
# layers of product rows
PSL34_BUILD_PEAK_MB = 48


def test_closure_memory_stays_bounded():
    """parse_group_spec("PSL3:4") in a child process: a stated peak RSS, and no numpy.random."""
    script = (
        "import sys\n"
        "from normgrowth.context import parse_group_spec\n"
        "g = parse_group_spec('PSL3:4')\n"
        "print(g.n, 'numpy.random' in sys.modules)\n"
    ) + PRINT_PEAK_KB
    n, random_loaded, peak_kb = run_child(script).split()
    assert n == "20160" and random_loaded == "False"
    assert int(peak_kb) / 1024 < PSL34_BUILD_PEAK_MB


@pytest.mark.parametrize("bad", [-1, 24])
def test_mul_refuses_indices_out_of_range(bad):
    """An index outside 0..n-1 on either side raises, never wraps around."""
    g = build_symmetric(4)
    assert g.n == 24
    for a, b in [(bad, 0), (0, bad), (np.array([0, bad, 1]), 2), (3, np.array([[5], [bad]]))]:
        with pytest.raises(IndexError, match="element index out of range for S4"):
            g.mul(a, b)
    assert g.mul(23, np.array([0, 23])).tolist() == [23, g.mul(23, 23)]


def test_alternating_2_is_a_closure():
    """A:2, the trivial group on two points, comes from closure like every named group."""
    g = build_alternating(2)
    assert (g.n, g.degree, g.label, g.generators) == (1, 2, "A2", (0,))
    assert g.perms.tolist() == [[0, 1]]
    assert g.left_translates([0]).tolist() == g.right_translates([0]).tolist() == [[0]]
    assert g.division_table().tolist() == [[0]]


def test_division_table():
    g = build_symmetric(4)
    dt = g.division_table()
    for a in (0, 3, 10):
        for b in (0, 7, 23):
            assert dt[a, b] == g.mul(g.inv(a), b)


def _orders_by_powers(rows):
    """Orders by `degree` powers of every row: a point's cycle length is the first power that sends it home."""
    points = np.arange(rows.shape[1])
    lengths = np.zeros(rows.shape, dtype=np.int64)
    cur = rows
    for k in range(1, rows.shape[1] + 1):
        lengths[(cur == points) & (lengths == 0)] = k
        cur = np.take_along_axis(rows, cur, axis=1)
    return np.lcm.reduce(lengths, axis=1)


def _cycle_group(m):
    """The cyclic group of order m as the powers of one m-cycle."""
    return closure([Permutation.from_cycles([tuple(range(m))], m)], cap=m)


@pytest.mark.parametrize(
    "make",
    [
        lambda: parse_group_spec("PSL3:3"),
        lambda: parse_group_spec("A:8"),
        lambda: parse_group_spec("PSL3:4"),
        lambda: parse_group_spec("PSL2:31"),
        lambda: _cycle_group(1024),
        lambda: closure([Permutation((0,))], cap=2),
    ],
    ids=["PSL3:3", "A:8", "PSL3:4", "PSL2:31", "C1024", "trivial"],
)
def test_orders_of_rows_by_pointer_jumping(make, monkeypatch):
    """The orders of every element, in at most ceil(log2 degree) + 1 gathers.

    The reference walks `degree` powers, so on the 1 024-cycle it runs on
    every 16th row; there the orders are also counted: phi(d) elements of
    each order d dividing 1 024.
    """
    g = make()
    calls = []
    take = np.take_along_axis

    def counting(*args, **kwargs):
        calls.append(1)
        return take(*args, **kwargs)

    monkeypatch.setattr(np, "take_along_axis", counting)
    orders = permgroup._orders_of_rows(g.perms)
    monkeypatch.undo()
    assert orders.dtype == np.int64 and orders.shape == (g.n,)
    assert len(calls) <= math.ceil(math.log2(g.degree)) + 1
    step = 16 if g.n == 1024 else 1
    assert np.array_equal(orders[::step], _orders_by_powers(g.perms[::step]))
    if g.n == 1024:
        found = dict(zip(*np.unique(orders, return_counts=True)))
        assert found == {1 << j: (1 << j) // 2 or 1 for j in range(11)}


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_symmetric(4),
        lambda: build_alternating(5),
        lambda: build_symmetric(5),
        lambda: closure([Permutation.from_cycles([(0, 1, 2, 3, 4, 5)], 6)]),
        lambda: closure([Permutation((0,))], cap=2),
    ],
    ids=["S4", "A5", "S5", "C6", "trivial"],
)
def test_cyclic_cosets_partition_the_group(make):
    g = make()
    idx = g.cyclic_cosets()
    perm = [g.permutation(i) for i in range(g.n)]
    m = max(p.order() for p in perm)
    assert idx.shape == (g.n // m, m)
    assert sorted(idx.ravel().tolist()) == list(range(g.n))
    # row 0 is <x> itself, from the identity; every row is x^i t_r
    x = perm[idx[0, 1 % m]]
    assert idx[0, 0] == 0 and x.order() == m
    for r in range(idx.shape[0]):
        power = perm[idx[r, 0]]
        for i in range(m):
            assert perm[idx[r, i]] == power
            power = x * power
    assert g.cyclic_cosets() is idx
    # q[r, s, d] = t_r^-1 x^d t_s, the division-table rows of the representatives
    assert (g.coset_quotients() == g.division_table()[idx[:, 0]][:, idx]).all()
    # pos[x^i t_r] = r m + i, the inverse of the coset order
    pos = g.coset_positions()
    assert pos.dtype == np.int32
    assert (pos[idx] == np.arange(g.n).reshape(idx.shape)).all()
    assert g.coset_positions() is pos


# -- conjugacy classes -----------------------------------------------------------


def brute_classes(g: FiniteGroup):
    """Independent all-element conjugation orbits, as frozensets."""
    seen = set()
    classes = []
    for x in range(g.n):
        if x in seen:
            continue
        orbit = {int(g.mul(g.mul(h, x), g.inv(h))) for h in range(g.n)}
        seen |= orbit
        classes.append(frozenset(orbit))
    return set(classes)


@pytest.mark.parametrize("builder,m", [(build_symmetric, 4), (build_alternating, 5)])
def test_classes_match_brute_force(builder, m):
    g = builder(m)
    ct = compute_classes(g)
    ours = {frozenset(int(i) for i in cls) for cls in ct.classes}
    assert ours == brute_classes(g)


def test_class_table_shape_a5(a5):
    ct = a5.classes
    assert sorted(ct.sizes.tolist()) == [1, 12, 12, 15, 20]
    assert ct.sizes[0] == 1 and ct.reps[0] == 0
    assert ct.sizes.sum() == 60
    # sorted ascending by size after the identity class
    assert list(ct.sizes) == sorted(ct.sizes)
    assert sorted(ct.rep_orders.tolist()) == [1, 2, 3, 5, 5]


def test_class_table_invariants(psl27):
    ct = psl27.classes
    g = psl27.group
    assert ct.n_classes == 6
    # partition
    assert sorted(int(i) for cls in ct.classes for i in cls) == list(range(g.n))
    # conjugation closure under generators
    for k, cls in enumerate(ct.classes):
        for gen in g.generators:
            conj = g.mul(g.mul(gen, cls), g.inv(gen))
            assert set(conj.tolist()) == set(cls.tolist())
    # inverse_class involution fixing the identity class
    inv = ct.inverse_class
    assert inv[0] == 0
    assert (inv[inv] == np.arange(ct.n_classes)).all()


def test_trivial_group_classes():
    g = closure([Permutation((0,))], cap=2)
    ct = compute_classes(g)
    assert ct.n_classes == 1


# sha256 of class_of, sizes and reps: report bodies name classes by index, so
# a new partition routine must keep the (size, rep) order and the int64 dtype
CLASS_TABLES = {
    "S:5": (
        "4dd90901daeb0c3c17274b9837c2850665cb863722532c272bc4180a8eb04b8e",
        "384ff1495c0cd44511c52210a98cb4eb21066ebf6acaa06e6fb19e9ea4fc252e",
        "4f29f7880c71a90f13fd16ff5f48cde8de4c564d774000f6b9414b9b174a5add",
    ),
    "A:7": (
        "ad392c6dfaead0bbf28c02549010e5802b4134f6ebc47418f424b83348b0e32b",
        "090869739dfdb78ea68423d034a833cb2e9d9b0594a5674eca6137b5cc3be632",
        "f0bc9dcab61d71d35a618bc73a3cfca24c834332d78d9613c02fdd7bd2227f4d",
    ),
    "PSL2:8": (
        "60f8d3b3286ac3ffae28211315ca6d4b978119dddb87f44353338e7e5dc28359",
        "3456e065b1108b55f8e1000718402a8c8a5402b4faed3e1fb42dd3d60158e638",
        "f9c0a117822027edebdcd74956bd075c22b8dcb5b4a039c2991a792ead31f31c",
    ),
    "PSL2:9": (
        "fb1224db1056c7d25d61750dcd041c941d12bc09c76d7a0f8380e5fe2f4ad864",
        "2b5c6e2760f866f94233637993229ac0b02fa5696b324e5c131a16a737443a77",
        "4584fb68c19ff1f979fd2faf1d88a475c1a44cf6a9f68fce533f1d5aa335a43b",
    ),
    "PSL2:11": (
        "87b153e358376b063fbee23d6a2954338a6c25a572091af5bb6810dc6bf45dc9",
        "7120c04fc1c7922b22b04857c9761e37ed14b3720b64bd4a026e8181b3bb7235",
        "ce70f62e6cb9789bf602868ec1c97cf92f0f7d84b55b252a880d13c2a1823b11",
    ),
    "PSL3:2": (
        "57b05a5658b5d8d26a0b319013bfce2c0cba6d505b7883b984c756d8c4113daa",
        "9a0976af988f568d39e87d8751a11998186d655be9797920959df1fb70d3b308",
        "5a30649e3873820c991059b81dc5531dcf60071fb8b25bd203d251023d6123dc",
    ),
    "PSL3:3": (
        "eda672aa6c86e8a7907f743d71a0faab20f155f3e3460b97d0b2141c91e8dbc4",
        "9bd84ceb932791336d6358ee262d71e3f4b039c262a4bf92fd73ab5989d9cd7a",
        "dc1e7e424a86481aafe622262373ba6b64e31beb63e01b25fcc6a2c12f509394",
    ),
    "PSL3:4": (
        "7c9f4b87902d655924f5514c3bd47ce5044508f0f470de116c3f5772498b3893",
        "a15c7934a41cfcdd349c24d1f7063e4bc20f8af8ba69acee7e1ca855b2ed6990",
        "ad293047f97787e924c818e26198a9ffe39ba31321480a19d57c403a239592b4",
    ),
}


@pytest.mark.parametrize("spec", sorted(CLASS_TABLES))
def test_class_partition_pinned(spec):
    ct = compute_classes(parse_group_spec(spec))
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (ct.class_of, ct.sizes, ct.reps))
    assert got == CLASS_TABLES[spec]


@pytest.mark.parametrize("spec", PROFILE_FULL + ("A:8",))
def test_centralizer_orders_match_the_class_sizes(spec):
    """|C_G(r_c)| = n / |C_c| on every class, and it equals a count through `mul`."""
    g = parse_group_spec(spec)
    ct = compute_classes(g)
    orders = certify_classes(ct)
    assert orders.dtype == np.int64
    assert np.array_equal(orders, g.n // ct.sizes)
    all_idx = np.arange(g.n)
    by_mul = [int((g.mul(all_idx, r) == g.mul(r, all_idx)).sum()) for r in ct.reps.tolist()]
    assert orders.tolist() == by_mul
    assert certify_classes(ct) is orders and ct.centralizer_orders is orders


def test_trivial_group_certifies():
    ct = compute_classes(closure([Permutation((0,))], cap=2))
    assert certify_classes(ct).tolist() == [1]


# -- real census -----------------------------------------------------------------


def test_real_census_a5(a5):
    rep = real_census(a5.classes)
    assert rep.real_classes == 5
    assert rep.real_elements == 60
    assert rep.non_real_classes == ()
    # A:5 is built with no defining field, so there is no coprime-order census
    assert rep.coprime_order_classes is None


def test_real_census_psl27(psl27):
    ct = psl27.classes
    rep = real_census(ct)
    assert len(rep.non_real_classes) == 2
    for k in rep.non_real_classes:
        assert ct.rep_orders[k] == 7
    # order-7 elements are not coprime to the characteristic 7
    assert rep.non_real_coprime_order_classes == ()


# -- words -----------------------------------------------------------------------


def test_parse_word():
    assert parse_word("xyXY") == [(0, 1), (1, 1), (0, -1), (1, -1)]
    assert parse_word("xxX") == [(0, 1)]
    with pytest.raises(EmptyWord):
        parse_word("xX")
    with pytest.raises(EmptyWord):
        parse_word("")
    with pytest.raises(ParseError):
        parse_word("xz")


def test_word_image_identity_word(a5):
    img = word_image(a5.classes, "x")
    assert img.sum() == 60


def test_word_image_squares(a5):
    img = word_image(a5.classes, "xx")
    assert img.sum() == 45
    assert img[0]
    # independent brute force
    g = a5.group
    brute = {int(g.mul(i, i)) for i in range(g.n)}
    assert set(np.flatnonzero(img).tolist()) == brute


def test_word_image_commutators(psl27):
    img = word_image(psl27.classes, "xyXY")
    assert img.sum() == 168


@functools.cache
def _classes(spec):
    return compute_classes(parse_group_spec(spec))


def _brute_image(g, word):
    """Elements w(x, y) over all n^2 pairs, the word's letters taken unreduced."""
    x, y = np.arange(g.n)[:, None], np.arange(g.n)[None, :]
    values = {"x": x, "X": g.inverse_of[x], "y": y, "Y": g.inverse_of[y]}
    w = g.identity
    for letter in word:
        w = g.mul(w, values[letter])
    return set(np.unique(w).tolist())


@pytest.mark.parametrize("word", ["x", "xx", "yyy", "xyXY", "xxyy", "xyyX", "xyxY", "xxYxy"])
@pytest.mark.parametrize("spec", ["A:5", "S:5", "PSL2:7", "PSL2:11", "PSL3:2"])
def test_word_image_two_letter_brute(spec, word):
    """The image from class representatives is the image over all of G x G."""
    ct = _classes(spec)
    img = word_image(ct, word)
    assert set(np.flatnonzero(img).tolist()) == _brute_image(ct.group, word)


def test_word_image_normal(a5):
    g = a5.group
    img = word_image(a5.classes, "xx")
    idxs = np.flatnonzero(img)
    for gen in g.generators:
        assert img[g.mul(g.mul(gen, idxs), g.inv(gen))].all()


# -- cycle-notation parsing ------------------------------------------------------


def test_parse_cycle_line():
    assert parse_cycle_line("(0 1 2) (3 4)") == [(0, 1, 2), (3, 4)]
    with pytest.raises(ParseError):
        parse_cycle_line("(0 1")
    with pytest.raises(ParseError):
        parse_cycle_line("0 1 2")


def test_generators_from_text_builds_group():
    gens = generators_from_text("(0 1 2)\n(0 1)\n")
    assert closure(gens, cap=10).n == 6


@settings(max_examples=25)
@given(st.lists(perm_images, min_size=1, max_size=3))
def test_closure_always_a_group(gen_images):
    gens = [Permutation(im) for im in gen_images]
    g = _closure_matching_reference(gens, cap=720)
    # closed under products and inverses
    rng = np.random.default_rng(1)
    idx = rng.integers(0, g.n, size=min(10, g.n))
    for a in idx:
        g.inv(int(a))
        for b in idx:
            g.mul(int(a), int(b))
    assert g.n % 1 == 0
