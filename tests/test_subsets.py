import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normgrowth.errors import EmptySubset, EmptyWord, NotNormal, ParseError
from normgrowth.subsets import (
    NormalSubset,
    Subset,
    enumerate_normal_subsets,
    parse_subset_expr,
    random_normal_subset,
    random_subset,
    subset_mask,
    union_rows,
)


def test_subset_basics():
    s = Subset.from_indices(10, [3, 1, 3])
    assert s.size == 2
    assert 1 in s and 3 in s and 0 not in s
    assert s.indices.tolist() == [1, 3]
    assert Subset.full(4).size == 4


def test_subset_mask_polymorphism(a5):
    mask = np.zeros(60, dtype=bool)
    mask[5] = True
    assert subset_mask(mask) is mask
    assert Subset(mask).size == 1
    ns = NormalSubset.from_classes(a5.classes, [1])
    assert ns.size == a5.classes.sizes[1]
    assert (subset_mask(ns) == ns.mask).all()


def test_normal_subset_from_classes(a5):
    ct = a5.classes
    ns = NormalSubset.from_classes(ct, [2, 1])
    assert ns.class_indices == (1, 2)
    assert ns.size == int(ct.sizes[1] + ct.sizes[2])
    assert ns.mask.sum() == ns.size
    with pytest.raises(ParseError):
        NormalSubset.from_classes(ct, [9])


def test_normal_subset_symmetry(psl27):
    ct = psl27.classes
    # the two order-7 classes are mutually inverse
    seven = [k for k in range(ct.n_classes) if ct.rep_orders[k] == 7]
    one_of_them = NormalSubset.from_classes(ct, seven[:1])
    both = NormalSubset.from_classes(ct, seven)
    assert not one_of_them.symmetric
    assert both.symmetric
    assert NormalSubset.from_classes(ct, [0]).symmetric


def test_normal_subset_from_subset(a5):
    ct = a5.classes
    full_class = Subset(np.isin(np.arange(60), ct.classes[3]))
    ns = NormalSubset.from_subset(ct, full_class)
    assert ns.class_indices == (3,)
    ragged = Subset.from_indices(60, [0, int(ct.classes[3][0])])
    with pytest.raises(NotNormal):
        NormalSubset.from_subset(ct, ragged)


def test_is_trivial(a5):
    ct = a5.classes
    assert NormalSubset.from_classes(ct, [0]).is_trivial()
    assert NormalSubset.from_classes(ct, []).is_trivial()
    assert not NormalSubset.from_classes(ct, [1]).is_trivial()


def test_normal_subset_size_counts_without_the_mask(a5):
    ns = NormalSubset.from_classes(a5.classes, [1, 2])
    assert ns.size == int(a5.classes.sizes[1] + a5.classes.sizes[2])
    assert "mask" not in ns.__dict__
    assert ns.size == int(ns.mask.sum())


def test_normal_subset_hashes_by_its_classes(a5):
    ct = a5.classes
    a = NormalSubset.from_classes(ct, [2, 1])
    b = NormalSubset.from_classes(ct, [1, 2, 1])
    assert a == b and hash(a) == hash(b)
    assert a != NormalSubset.from_classes(ct, [1])
    assert len({a, b, NormalSubset.from_classes(ct, [1])}) == 2


# -- expression parsing ----------------------------------------------------------


def test_parse_class_exprs(a5):
    ct = a5.classes
    one = parse_subset_expr("class:2", ct)
    assert one.class_indices == (2,)
    many = parse_subset_expr("classes:0,2,3", ct)
    assert many.class_indices == (0, 2, 3)
    nonid = parse_subset_expr("all-nonid", ct)
    assert nonid.class_indices == tuple(range(1, ct.n_classes))
    assert nonid.size == 59


def test_parse_complement_real(psl27):
    ct = psl27.classes
    s = parse_subset_expr("complement-real", ct)
    # exactly the two non-real classes of order 7
    assert len(s.class_indices) == 2
    for k in s.class_indices:
        assert not ct.is_real[k]


def test_parse_word_expr(a5):
    ct = a5.classes
    s = parse_subset_expr("word:xx", ct)
    assert s.size == 45
    assert 0 in s.as_subset()


def test_parse_errors(a5):
    ct = a5.classes
    for bad in ("", "class:", "class:99", "classes:", "nope", "class:x"):
        with pytest.raises(ParseError):
            parse_subset_expr(bad, ct)
    with pytest.raises(EmptyWord):
        parse_subset_expr("word:", ct)
    with pytest.raises(EmptyWord):
        parse_subset_expr("word:xX", ct)


@settings(max_examples=40)
@given(st.sets(st.integers(min_value=0, max_value=4), min_size=1))
def test_expr_roundtrip(idxs):
    from normgrowth.context import get_context

    ctx = get_context("A:5")
    ns = NormalSubset.from_classes(ctx.classes, sorted(idxs))
    back = parse_subset_expr(ns.expr(), ctx.classes)
    assert back.class_indices == ns.class_indices


# -- enumeration and sampling ----------------------------------------------------


def test_enumerate_counts(a5):
    ct = a5.classes
    with_id = enumerate_normal_subsets(ct, include_identity_class=True)
    without = enumerate_normal_subsets(ct, include_identity_class=False)
    assert len(with_id) == 2**5 - 1
    assert len(without) == 2**4 - 1
    assert all(0 not in s.class_indices for s in without)
    # no duplicates
    assert len({s.class_indices for s in with_id}) == len(with_id)


@pytest.mark.parametrize("spec", ["A:5", "PSL3:2"])
@pytest.mark.parametrize("identity", [True, False])
def test_enumeration_and_union_rows_share_the_bitmask_order(spec, identity):
    """Row r - 1 and subset r - 1 hold the classes at the set bits of r, bit i the i-th class in play."""
    from normgrowth.context import get_context

    ct = get_context(spec).classes
    play = list(range(0 if identity else 1, ct.n_classes))
    want = [
        tuple(c for i, c in enumerate(play) if bits >> i & 1) for bits in range(1, 1 << len(play))
    ]
    rows = union_rows(ct, identity)
    assert rows.dtype == bool and rows.shape == (len(want), ct.n_classes)
    assert [tuple(np.flatnonzero(r).tolist()) for r in rows] == want
    subsets = enumerate_normal_subsets(ct, include_identity_class=identity)
    assert [s.class_indices for s in subsets] == want
    assert all(np.array_equal(s.indicator, r) for s, r in zip(subsets, rows))


def test_normal_subset_size_is_the_class_size_sum(psl27):
    ct = psl27.classes
    for s in enumerate_normal_subsets(ct):
        assert s.size == int(ct.sizes[list(s.class_indices)].sum()) == s.indices.size


def test_random_normal_subset(a5):
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = random_normal_subset(a5.classes, rng)
        assert s.size > 0
    rng = np.random.default_rng(0)
    t = random_normal_subset(a5.classes, rng)
    rng = np.random.default_rng(0)
    assert random_normal_subset(a5.classes, rng).class_indices == t.class_indices


def test_random_normal_subset_draws_as_one_call_per_class(a5, psl27):
    """One draw of every bit reads the values, and leaves the state, of one draw per class."""
    for ctx in (a5, psl27):
        for identity in (True, False):
            for seed in range(20):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                pool = range(0 if identity else 1, ctx.classes.n_classes)
                for _ in range(20):
                    got = random_normal_subset(ctx.classes, rng, include_identity_class=identity)
                    pick = []
                    while not pick:
                        pick = [i for i in pool if ref.integers(2)]
                    assert got.class_indices == tuple(pick)
                assert rng.bit_generator.state == ref.bit_generator.state


def test_random_subset_reproducible():
    rng = np.random.default_rng(7)
    a = random_subset(100, rng)
    assert a.size > 0
    rng = np.random.default_rng(7)
    b = random_subset(100, rng)
    assert (a.mask == b.mask).all()


def test_random_normal_subset_without_a_class_to_draw_raises():
    """A one-class table has no nonidentity class: EmptySubset before any draw, not a loop."""
    from normgrowth.context import parse_group_spec
    from normgrowth.permgroup import compute_classes

    ct = compute_classes(parse_group_spec("A:2"))
    assert ct.n_classes == 1
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(EmptySubset):
        random_normal_subset(ct, rng, include_identity_class=False)
    assert rng.bit_generator.state == state
    assert random_normal_subset(ct, rng).class_indices == (0,)


@pytest.mark.parametrize("n, density", [(0, None), (-1, None), (0, 0.5), (5, 0.0), (5, -0.5), (5, float("nan"))])
def test_random_subset_that_cannot_be_nonempty_raises(n, density):
    """No element, or a density that is not positive: EmptySubset before any draw, not a loop."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(EmptySubset):
        random_subset(n, rng, density=density)
    assert rng.bit_generator.state == state
    assert random_subset(1, rng, density=1.0).mask.tolist() == [True]
