import json
import math

import numpy as np
import pytest

from normgrowth.chartable import (
    character_ratio,
    class_mult_tensor,
    class_tensor,
    compute_character_table,
    frobenius_tensor,
    load_table,
    min_nontrivial_degree,
    r_extremes,
    save_table,
    verify_orthogonality,
)
from normgrowth.context import PROFILES, get_context
from normgrowth.errors import (
    EmptySubset,
    OnlyTrivial,
    OrthogonalityError,
    SchemaError,
)
from normgrowth.permgroup import (
    Permutation,
    build_alternating,
    build_symmetric,
    closure,
    compute_classes,
    real_census,
)
from normgrowth.subsets import NormalSubset

# degree multisets pinned by sum of squares = n plus row orthogonality
KNOWN_DEGREES = {
    "A:5": [1, 3, 3, 4, 5],
    "S:5": [1, 1, 4, 4, 5, 5, 6],
    "PSL2:7": [1, 3, 3, 6, 7, 8],
    "PSL2:9": [1, 5, 5, 8, 8, 9, 10],
    "PSL2:11": [1, 5, 5, 10, 10, 11, 12, 12],
    "PSL2:13": [1, 7, 7, 12, 12, 12, 13, 14, 14],
    "PSL3:2": [1, 3, 3, 6, 7, 8],
    "PSL3:3": [1, 12, 13, 16, 16, 16, 16, 26, 26, 26, 27, 39],
}


def brute_tensor(group, ct):
    """a[i,j,k] = #{(x,y) in C_i x C_j : xy = rep_k}, by triple loop."""
    k = ct.n_classes
    a = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for x in ct.classes[i]:
            for j in range(k):
                for y in ct.classes[j]:
                    prod = group.mul(int(x), int(y))
                    for kk in range(k):
                        if prod == ct.reps[kk]:
                            a[i, j, kk] += 1
    return a


@pytest.mark.parametrize("builder,m", [(build_symmetric, 3), (build_alternating, 4)])
def test_tensor_matches_brute_force(builder, m):
    g = builder(m)
    ct = compute_classes(g)
    assert (class_mult_tensor(g, ct) == brute_tensor(g, ct)).all()


def test_tensor_identity_slice(a5):
    a = class_mult_tensor(a5.group, a5.classes)
    k = a.shape[0]
    assert (a[0] == np.eye(k, dtype=np.int64)).all()


def test_tensor_row_sums(psl27):
    ct = psl27.classes
    a = class_mult_tensor(psl27.group, ct)
    sizes = ct.sizes
    for i in range(ct.n_classes):
        for j in range(ct.n_classes):
            assert (a[i, j] * sizes).sum() == sizes[i] * sizes[j]


def test_tensor_s3_transpositions():
    g = build_symmetric(3)
    ct = compute_classes(g)
    a = class_mult_tensor(g, ct)
    t = int(np.flatnonzero(ct.sizes == 3)[0])
    # product of two transpositions hits the identity 3 ways
    assert a[t, t, 0] == 3


@pytest.mark.parametrize("spec", sorted(KNOWN_DEGREES))
def test_degrees(spec):
    ctx = get_context(spec)
    got = sorted(int(round(d)) for d in ctx.table.degrees)
    assert got == KNOWN_DEGREES[spec]
    assert sum(d * d for d in got) == ctx.n


def psl2_degrees(q):
    """Closed-form character degrees of PSL(2, q), by q even, q = 1 or q = 3 mod 4."""
    if q % 2 == 0:
        return sorted([1, q] + [q + 1] * ((q - 2) // 2) + [q - 1] * (q // 2))
    if q % 4 == 1:
        tail = [q + 1] * ((q - 5) // 4) + [q - 1] * ((q - 1) // 4) + [(q + 1) // 2] * 2
    else:
        tail = [q + 1] * ((q - 3) // 4) + [q - 1] * ((q - 3) // 4) + [(q - 1) // 2] * 2
    return sorted([1, q] + tail)


PROFILE_PSL2 = sorted(
    {spec for specs in PROFILES.values() for spec in specs if spec.startswith("PSL2:")}
)


# q = 4 and 8 cover the even case, which no profile group has
@pytest.mark.parametrize("spec", PROFILE_PSL2 + ["PSL2:4", "PSL2:8"])
def test_psl2_degrees_closed_form(spec):
    ctx = get_context(spec)
    q = int(spec.partition(":")[2])
    got = sorted(int(round(d)) for d in ctx.table.degrees)
    assert got == psl2_degrees(q)
    assert sum(d * d for d in got) == ctx.n == q * (q * q - 1) // math.gcd(2, q - 1)


@pytest.mark.parametrize("spec", sorted(KNOWN_DEGREES))
def test_orthogonality(spec):
    tab = get_context(spec).table
    assert verify_orthogonality(tab) <= 1e-8
    assert tab.residual <= 1e-8


def test_trivial_row_first(a5):
    tab = a5.table
    assert np.abs(tab.values[0] - 1.0).max() < 1e-12
    assert round(float(tab.degrees[0])) == 1


def test_golden_ratio_values(a5):
    # the two 3-dimensional characters take (1 +- sqrt 5)/2 on the 5-cycles
    tab = a5.table
    ct = a5.classes
    fives = [k for k in range(ct.n_classes) if ct.rep_orders[k] == 5]
    phi = (1 + math.sqrt(5)) / 2
    rows = [r for r in range(5) if round(float(tab.degrees[r])) == 3]
    vals = sorted(
        float(tab.values[r, k].real) for r in rows for k in fives
    )
    assert np.allclose(vals, [1 - phi, 1 - phi, phi, phi], atol=1e-9)
    assert np.abs(tab.values[:, fives].imag).max() < 1e-9


def test_character_second_orthogonality(psl27):
    tab = psl27.table
    v = tab.values
    for i in range(tab.n_classes):
        for j in range(tab.n_classes):
            dot = (v[:, i] * v[:, j].conj()).sum()
            want = tab.n / tab.class_sizes[i] if i == j else 0.0
            assert abs(dot - want) < 1e-8


def test_table_deterministic_across_seeds(psl27):
    base = psl27.table
    again = compute_character_table(psl27.group, psl27.classes, seed=99)
    assert np.abs(base.values - again.values).max() < 1e-9


def test_class_orders_recorded(a5):
    assert (a5.table.class_orders == a5.classes.rep_orders).all()


def test_ratios(psl27):
    tab = psl27.table
    ratios = tab.ratios()
    assert ratios[0] == pytest.approx(1.0)
    assert ratios.max() <= 1.0 + 1e-12
    for k in range(tab.n_classes):
        assert character_ratio(tab, k) == pytest.approx(ratios[k])
    r_min, r_max = r_extremes(tab, range(1, tab.n_classes))
    assert 0 < r_min <= r_max <= 19 / 20


def test_r_extremes_accepts_normal_subset(a5):
    s = NormalSubset.from_classes(a5.classes, [1, 3])
    lo, hi = r_extremes(a5.table, s)
    assert lo == min(character_ratio(a5.table, 1), character_ratio(a5.table, 3))
    assert hi == max(character_ratio(a5.table, 1), character_ratio(a5.table, 3))
    with pytest.raises(EmptySubset):
        r_extremes(a5.table, [])


def test_min_nontrivial_degree():
    assert min_nontrivial_degree(get_context("A:5").table) == 3
    # the sign character makes it 1 for the symmetric group
    assert min_nontrivial_degree(get_context("S:5").table) == 1
    assert min_nontrivial_degree(get_context("PSL2:7").table) == 3


def test_only_trivial():
    g = closure([Permutation((1, 0))], cap=4)
    ct = compute_classes(g)
    tab = compute_character_table(g, ct)
    # order-2 group is fine, the trivial group is not
    assert tab.n_classes == 2
    t = closure([Permutation((0,))], cap=2)
    tt = compute_character_table(t, compute_classes(t))
    with pytest.raises(OnlyTrivial):
        tt.ratios()
    with pytest.raises(OnlyTrivial):
        min_nontrivial_degree(tt)


def test_context_keeps_its_tensor(a5):
    kept = a5.classes.tensor
    assert kept is not None and class_tensor(a5.classes) is kept
    assert np.array_equal(kept, class_mult_tensor(a5.group, a5.classes))


def test_frobenius_tensor_consistency(a5):
    a = class_mult_tensor(a5.group, a5.classes)
    approx = frobenius_tensor(a5.table)
    assert np.abs(approx - a).max() < 1e-8


CLASS_FUNCTION_GROUPS = ["A:5", "PSL2:7", "PSL2:11"]


def fiber_at_reps(ctx, values):
    """How many of the word values equal each class representative."""
    return np.bincount(values.ravel(), minlength=ctx.n)[ctx.classes.reps]


@pytest.mark.parametrize("spec", CLASS_FUNCTION_GROUPS)
def test_square_roots_from_frobenius_schur_indicators(spec):
    """#{x : x^2 = g} = sum over chi of nu(chi) chi(g)."""
    ctx = get_context(spec)
    g, ct, tab = ctx.group, ctx.classes, ctx.table
    x = np.arange(g.n)
    squares = g.mul(x, x)
    # nu(chi) = (1/n) sum over x of chi(x^2), one of -1, 0, 1
    nu = tab.values[:, ct.class_of[squares]].sum(axis=1) / g.n
    assert np.abs(nu - np.round(nu.real)).max() < 1e-8
    assert set(np.round(nu.real).tolist()) <= {-1.0, 0.0, 1.0}
    formula = (np.round(nu.real)[:, None] * tab.values).sum(axis=0)
    assert np.abs(formula - fiber_at_reps(ctx, squares)).max() < 1e-8


@pytest.mark.parametrize("spec", CLASS_FUNCTION_GROUPS)
def test_commutator_fibers_from_the_table(spec):
    """#{(x, y) : [x, y] = g} = n sum over chi of chi(g) / chi(1) (Frobenius)."""
    ctx = get_context(spec)
    g, tab = ctx.group, ctx.table
    x, inv = np.arange(g.n), g.inverse_of
    commutators = g.mul(g.mul(x[:, None], x), g.mul(inv[:, None], inv))
    formula = g.n * (tab.values / tab.degrees[:, None]).sum(axis=0)
    assert np.abs(formula - fiber_at_reps(ctx, commutators)).max() < 1e-6


@pytest.mark.parametrize("spec", CLASS_FUNCTION_GROUPS)
def test_real_characters_match_real_classes(spec):
    """Brauer's permutation lemma: as many real characters as real classes."""
    ctx = get_context(spec)
    real_rows = int((np.abs(ctx.table.values.imag).max(axis=1) < 1e-8).sum())
    assert real_rows == real_census(ctx.classes).real_classes


# -- persistence -----------------------------------------------------------------


def test_save_creates_parent_directories(tmp_path, a5):
    path = tmp_path / "fresh" / "nested" / "a5.json"
    save_table(a5.table, path)
    assert load_table(path).n == 60


def test_save_load_roundtrip(tmp_path, psl27):
    path = tmp_path / "psl27.json"
    save_table(psl27.table, path)
    loaded = load_table(path)
    assert loaded.label == psl27.table.label
    assert loaded.n == psl27.table.n
    assert np.abs(loaded.values - psl27.table.values).max() <= 1e-12
    assert (loaded.class_sizes == psl27.table.class_sizes).all()


def test_load_rejects_tampered_values(tmp_path, a5):
    path = tmp_path / "a5.json"
    save_table(a5.table, path)
    doc = json.loads(path.read_text())
    doc["characters"][2][3][0] += 0.05
    path.write_text(json.dumps(doc))
    with pytest.raises(OrthogonalityError):
        load_table(path)


def test_load_schema_errors(tmp_path, a5):
    path = tmp_path / "t.json"

    def dump(doc):
        path.write_text(json.dumps(doc))

    save_table(a5.table, path)
    good = json.loads(path.read_text())

    path.write_text("not json")
    with pytest.raises(SchemaError):
        load_table(path)

    for field in ("group_label", "order", "class_sizes", "characters"):
        doc = dict(good)
        doc.pop(field)
        dump(doc)
        with pytest.raises(SchemaError):
            load_table(path)

    doc = dict(good)
    doc["order"] = -5
    dump(doc)
    with pytest.raises(SchemaError):
        load_table(path)

    doc = dict(good)
    doc["class_sizes"] = [1, 2, 3]
    dump(doc)
    with pytest.raises(SchemaError):
        load_table(path)

    doc = dict(good)
    doc["characters"] = doc["characters"][:2]
    dump(doc)
    with pytest.raises(SchemaError):
        load_table(path)

    doc = dict(good)
    doc["characters"][0][0] = [1.0]
    dump(doc)
    with pytest.raises(SchemaError):
        load_table(path)
