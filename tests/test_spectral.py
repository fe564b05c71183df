import numpy as np
import pytest

from normgrowth import tolerances as tol
from normgrowth.chartable import character_ratio
from normgrowth.errors import EmptySubset, NoConvergence, NotNormal
from normgrowth.spectral import (
    arc_count,
    check_vertex_expansion,
    commutation_defect,
    eigenvalues_normal,
    lambda_direct,
    lambda_normal,
    make_cayley,
    mixing_discrepancy,
    neighborhood,
    spectral_report,
    walk_matrix,
)
from normgrowth.subsets import (
    NormalSubset,
    Subset,
    parse_subset_expr,
    random_subset,
)


def test_eigenvalues_all_nonidentity(a5):
    s = parse_subset_expr("all-nonid", a5.group, a5.classes)
    ev = eigenvalues_normal(a5.table, s)
    assert ev[0] == pytest.approx(1.0, abs=1e-12)
    # each nontrivial eigenvalue is -deg/(deg*59) = -1/59
    assert np.allclose(ev[1:], -1 / 59, atol=1e-10)
    assert lambda_normal(a5.table, s) == pytest.approx(1 / 59, abs=1e-12)


def test_single_class_eigenvalues(psl27):
    ct, tab = psl27.classes, psl27.table
    for k in range(1, ct.n_classes):
        s = NormalSubset.from_classes(ct, [k])
        ev = eigenvalues_normal(tab, s)
        # lambda_chi = chi(g) / chi(1) on a single class
        want = tab.values[:, k] / tab.degrees
        assert np.allclose(ev, want, atol=1e-10)
        assert lambda_normal(tab, s) == pytest.approx(
            character_ratio(tab, k), abs=1e-10
        )


def test_eigenvalues_need_nonempty(a5):
    with pytest.raises(EmptySubset):
        eigenvalues_normal(a5.table, NormalSubset.from_classes(a5.classes, []))


def test_lambda_direct_extremes(a5):
    g, ct = a5.group, a5.classes
    full = make_cayley(g, Subset.full(g.n), ct)
    assert lambda_direct(full) < 1e-6
    ident = make_cayley(g, Subset.from_indices(g.n, [0]), ct)
    assert lambda_direct(ident) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("fixture", ["a5", "psl27"])
def test_lambda_routes_agree(fixture, request):
    ctx = request.getfixturevalue(fixture)
    for k in range(1, ctx.classes.n_classes):
        s = NormalSubset.from_classes(ctx.classes, [k])
        spec = make_cayley(ctx.group, s, ctx.classes)
        assert lambda_direct(spec) == pytest.approx(
            lambda_normal(ctx.table, s), abs=1e-6
        )


def test_power_iteration_matches_dense(psl27):
    s = NormalSubset.from_classes(psl27.classes, [1])
    spec = make_cayley(psl27.group, s, psl27.classes)
    dense = lambda_direct(spec)
    power = lambda_direct(spec, dense_cap=1)
    assert power == pytest.approx(dense, abs=1e-6)


def test_power_iteration_no_convergence(a5, monkeypatch):
    s = NormalSubset.from_classes(a5.classes, [1])
    spec = make_cayley(a5.group, s, a5.classes)
    monkeypatch.setattr(tol, "POWER_MAX_ITER", 2)
    monkeypatch.setattr(tol, "POWER_TOL", 1e-15)
    with pytest.raises(NoConvergence):
        lambda_direct(spec, dense_cap=1)


def test_walk_matrix_stochastic_and_normal(a5):
    s = NormalSubset.from_classes(a5.classes, [3])
    spec = make_cayley(a5.group, s, a5.classes)
    m = walk_matrix(spec)
    assert np.allclose(m.sum(axis=1), 1.0)
    assert ((m == 0) | (m == 1 / s.size)).all()
    perm = [a5.group.permutation(i) for i in range(a5.n)]
    in_s = {perm[i] for i in s.indices}
    brute = [[perm[g].inverse() * perm[h] in in_s for h in range(a5.n)] for g in range(a5.n)]
    assert (m == np.array(brute) / s.size).all()
    assert commutation_defect(spec) <= 1e-10


def test_nonnormal_subset_detected(a5):
    g, ct = a5.group, a5.classes
    s = Subset.from_indices(g.n, [0, 1, 2])
    spec = make_cayley(g, s, ct)
    assert not spec.normal
    assert spec.class_indices is None
    # the normal-only bounds refuse it
    rng = np.random.default_rng(0)
    b = random_subset(g.n, rng)
    with pytest.raises(NotNormal):
        check_vertex_expansion(spec, b, a5.table)
    with pytest.raises(NotNormal):
        mixing_discrepancy(spec, b, b, a5.table)


def test_arc_count_and_neighborhood(a5):
    g, ct = a5.group, a5.classes
    s = NormalSubset.from_classes(ct, [1])
    spec = make_cayley(g, s, ct)
    rng = np.random.default_rng(3)
    a = random_subset(g.n, rng)
    b = random_subset(g.n, rng)
    # arc a->x with x in B iff a^-1 x in S, counted by brute force
    brute = 0
    for x in a.indices:
        for y in b.indices:
            if spec.mask[g.mul(g.inv(int(x)), int(y))]:
                brute += 1
    assert arc_count(spec, a, b) == brute
    nb = neighborhood(spec, a)
    want = {int(g.mul(int(x), int(sel))) for x in a.indices for sel in s.indices}
    assert set(nb.indices.tolist()) == want


def test_mixing_bound_holds(psl27):
    g, ct, tab = psl27.group, psl27.classes, psl27.table
    rng = np.random.default_rng(11)
    for k in (1, 3, 5):
        spec = make_cayley(g, NormalSubset.from_classes(ct, [k]), ct)
        for _ in range(25):
            a = random_subset(g.n, rng)
            b = random_subset(g.n, rng)
            lhs, rhs = mixing_discrepancy(spec, a, b, tab)
            assert lhs <= rhs + 1e-9


def test_vertex_expansion_bound(a5):
    g, ct, tab = a5.group, a5.classes, a5.table
    rng = np.random.default_rng(5)
    spec = make_cayley(g, NormalSubset.from_classes(ct, [4]), ct)
    for _ in range(25):
        b = random_subset(g.n, rng)
        nb, bound = check_vertex_expansion(spec, b, tab)
        assert nb >= bound - 1e-9
        assert nb <= g.n


def test_spectral_report(psl27):
    s = NormalSubset.from_classes(psl27.classes, [1])
    rep = spectral_report(
        psl27.group, psl27.classes, psl27.table, s, "class:1"
    )
    assert rep.normal and rep.method == "dense"
    assert rep.agree()
    assert len(rep.char_eigenvalues) == psl27.classes.n_classes
    # non-normal subsets carry no character route
    s2 = Subset.from_indices(psl27.n, [0, 1])
    rep2 = spectral_report(
        psl27.group, psl27.classes, psl27.table, s2, "adhoc"
    )
    assert not rep2.normal
    assert rep2.lambda_char is None
    assert rep2.agree() is None


def test_make_cayley_empty(a5):
    with pytest.raises(EmptySubset):
        make_cayley(a5.group, Subset(np.zeros(60, dtype=bool)), a5.classes)
