import math

import numpy as np
import pytest

from normgrowth import spectral
from normgrowth.chartable import character_ratio
from normgrowth.context import get_context, parse_group_spec
from normgrowth.errors import CountMismatch, EmptySubset, NoConvergence
from normgrowth.growth import pair_count, product_set
from normgrowth.permgroup import compute_classes
from normgrowth.spectral import (
    arc_count,
    check_vertex_expansion,
    convolve_rows,
    deflated_lambda,
    eigenvalues_normal,
    lambda_direct,
    lambda_normal,
    _mixing_bound,
    mixing_discrepancies,
    spectral_report,
    walk_matrix,
)
from normgrowth.subsets import (
    NormalSubset,
    Subset,
    parse_subset_expr,
    random_normal_subset,
    random_subset,
)
from normgrowth.tolerances import DEFAULT, Tolerances


def test_eigenvalues_all_nonidentity(a5):
    s = parse_subset_expr("all-nonid", a5.group, a5.classes)
    ev = eigenvalues_normal(a5.table, s, DEFAULT)
    assert ev[0] == pytest.approx(1.0, abs=1e-12)
    # each nontrivial eigenvalue is -deg/(deg*59) = -1/59
    assert np.allclose(ev[1:], -1 / 59, atol=1e-10)
    assert lambda_normal(a5.table, s, DEFAULT) == pytest.approx(1 / 59, abs=1e-12)


def test_single_class_eigenvalues(psl27):
    ct, tab = psl27.classes, psl27.table
    for k in range(1, ct.n_classes):
        s = NormalSubset.from_classes(ct, [k])
        ev = eigenvalues_normal(tab, s, DEFAULT)
        # lambda_chi = chi(g) / chi(1) on a single class
        want = tab.values[:, k] / tab.degrees
        assert np.allclose(ev, want, atol=1e-10)
        assert lambda_normal(tab, s, DEFAULT) == pytest.approx(
            character_ratio(tab, k), abs=1e-10
        )


def test_eigenvalues_need_nonempty(a5):
    with pytest.raises(EmptySubset):
        eigenvalues_normal(a5.table, NormalSubset.from_classes(a5.classes, []), DEFAULT)


def test_lambda_direct_extremes(a5, s5, psl27, psl211, monkeypatch):
    # the dense solve, then Lanczos, which settles both in one step
    for cap, steps in ((spectral.DENSE_CAP, 0), (1, 1)):
        monkeypatch.setattr(spectral, "DENSE_CAP", cap)
        for ctx in (a5, s5, psl27, psl211):
            ct = ctx.classes
            # S = G mixes in one step: lambda is 0, not the square root of rounding noise
            full = NormalSubset.from_classes(ct, range(ct.n_classes))
            lam, took, _ = lambda_direct(full, DEFAULT, return_info=True)
            assert lam <= DEFAULT.slack
            assert took == steps
            ident = NormalSubset.from_classes(ct, [0])
            lam, took, _ = lambda_direct(ident, DEFAULT, return_info=True)
            assert lam == pytest.approx(1.0, abs=1e-12)
            assert took == steps


def _dense_oracle(group, weights):
    """sqrt(lambda_max(M0 M0^t)) with M0 the full n x n walk matrix of w - 1/n."""
    m0 = walk_matrix(group, weights - 1.0 / group.n)
    return math.sqrt(max(float(np.linalg.eigvalsh(m0 @ m0.T)[-1]), 0.0))


@pytest.mark.parametrize("fixture", ["a5", "s5", "psl27", "psl211"])
def test_blocked_solve_matches_dense_oracle(fixture, request):
    """The coset-DFT blocks give the same lambda as one n x n eigensolve.

    Every single class, seeded random unions, and seeded arbitrary weights,
    which are not class functions: the block split holds for every w.  S:5's
    cyclic subgroup has even order 6, and its transpositions give a
    bipartite walk whose lambda = 1 comes from the sign character alone, in
    the Nyquist block l = m/2.
    """
    ctx = request.getfixturevalue(fixture)
    group, ct = ctx.group, ctx.classes
    rng = np.random.default_rng(17)
    subsets = [NormalSubset.from_classes(ct, [k]) for k in range(ct.n_classes)]
    subsets += [random_normal_subset(ct, rng) for _ in range(6)]
    weights = [s.mask / s.size for s in subsets]
    for _ in range(6):
        dense = rng.random(group.n)
        weights.append(dense / dense.sum())
        sparse = dense * (rng.random(group.n) < 0.1)
        sparse[rng.integers(group.n)] = 1.0
        weights.append(sparse / sparse.sum())
    for w in weights:
        assert abs(deflated_lambda(group, w) - _dense_oracle(group, w)) <= 1e-12
    full = NormalSubset.from_classes(ct, range(ct.n_classes))
    assert deflated_lambda(group, full.mask / full.size) == 0.0


def test_lambda_direct_empty(a5):
    with pytest.raises(EmptySubset):
        lambda_direct(NormalSubset.from_classes(a5.classes, []), DEFAULT)


@pytest.mark.parametrize("fixture", ["a5", "psl27"])
def test_lambda_routes_agree(fixture, request):
    ctx = request.getfixturevalue(fixture)
    for k in range(1, ctx.classes.n_classes):
        s = NormalSubset.from_classes(ctx.classes, [k])
        assert lambda_direct(s, DEFAULT) == pytest.approx(
            lambda_normal(ctx.table, s, DEFAULT), abs=1e-6
        )


def test_lanczos_matches_dense(psl27, monkeypatch):
    ct = psl27.classes
    subsets = [NormalSubset.from_classes(ct, [c]) for c in range(1, ct.n_classes)]
    dense = [lambda_direct(s, DEFAULT) for s in subsets]
    monkeypatch.setattr(spectral, "DENSE_CAP", 1)
    for s, want in zip(subsets, dense):
        assert abs(lambda_direct(s, DEFAULT) - want) <= 1e-12


def test_lanczos_step_cap_raises(a5, monkeypatch):
    """A stop rule that never holds runs into the cap: exactly k products, then an error."""
    s = NormalSubset.from_classes(a5.classes, [1])
    monkeypatch.setattr(spectral, "DENSE_CAP", 1)
    steps = []
    inner = spectral._mean_take
    monkeypatch.setattr(spectral, "_mean_take", lambda *a: steps.append(1) or inner(*a))
    with pytest.raises(NoConvergence):
        lambda_direct(s, Tolerances(lanczos_tol=-1.0))
    # two walk steps, M^t then M, per product
    assert len(steps) == 2 * a5.classes.n_classes


def test_walk_matrix_stochastic_and_normal(a5):
    s = NormalSubset.from_classes(a5.classes, [3])
    m = walk_matrix(a5.group, s.mask / s.size)
    assert np.allclose(m.sum(axis=1), 1.0)
    assert ((m == 0) | (m == 1 / s.size)).all()
    perm = [a5.group.permutation(i) for i in range(a5.n)]
    in_s = {perm[i] for i in s.indices}
    brute = [[perm[g].inverse() * perm[h] in in_s for h in range(a5.n)] for g in range(a5.n)]
    assert (m == np.array(brute) / s.size).all()


def test_arc_count_and_neighborhood(a5):
    g, ct = a5.group, a5.classes
    s = NormalSubset.from_classes(ct, [1])
    rng = np.random.default_rng(3)
    a = random_subset(g.n, rng)
    b = random_subset(g.n, rng)
    # arc a->x with x in B iff a^-1 x in S, counted by brute force
    brute = 0
    for x in a.indices:
        for y in b.indices:
            if s.mask[g.mul(g.inv(int(x)), int(y))]:
                brute += 1
    assert arc_count(s, a, b) == brute
    # the vertex-expansion check measures the out-neighborhood N(A) = A*S
    nb, _ = check_vertex_expansion(s, a, a5.table, DEFAULT)
    want = {int(g.mul(int(x), int(sel))) for x in a.indices for sel in s.indices}
    assert nb == len(want)


def mixing_discrepancy(s, a, b, tab):
    """(lhs, rhs) of the mixing bound for one pair, its arcs counted by `arc_count`."""
    lam = lambda_normal(tab, s, DEFAULT)
    return _mixing_bound(s.group.n, s.size, lam, a.size, b.size, arc_count(s, a, b))


def test_mixing_bound_holds(psl27):
    g, ct, tab = psl27.group, psl27.classes, psl27.table
    rng = np.random.default_rng(11)
    for k in (1, 3, 5):
        s = NormalSubset.from_classes(ct, [k])
        for _ in range(25):
            a = random_subset(g.n, rng)
            b = random_subset(g.n, rng)
            lhs, rhs = mixing_discrepancy(s, a, b, tab)
            assert lhs <= rhs + 1e-9


def test_vertex_expansion_bound(a5):
    g, ct, tab = a5.group, a5.classes, a5.table
    rng = np.random.default_rng(5)
    s = NormalSubset.from_classes(ct, [4])
    for _ in range(25):
        b = random_subset(g.n, rng)
        nb, bound = check_vertex_expansion(s, b, tab, DEFAULT)
        assert nb >= bound - 1e-9
        assert nb <= g.n


def test_spectral_report(psl27, monkeypatch):
    s = NormalSubset.from_classes(psl27.classes, [1])
    rep = spectral_report(
        psl27.group, psl27.classes, psl27.table, s, "class:1"
    )
    assert rep.method == "dense"
    assert (rep.steps, rep.residual) == (0, 0.0)
    assert rep.agree()
    assert len(rep.char_eigenvalues) == psl27.classes.n_classes
    monkeypatch.setattr(spectral, "DENSE_CAP", 1)
    rep = spectral_report(psl27.group, psl27.classes, psl27.table, s, "class:1")
    assert rep.method == "lanczos"
    assert 1 <= rep.steps <= psl27.classes.n_classes - 1
    assert 0.0 <= rep.residual <= DEFAULT.lanczos_tol * rep.lambda_direct ** 2
    assert rep.agree()


def kernel_rows(n, rng):
    """Seeded 0/1 rows: empty, a singleton, the full group, and random sets."""
    rows = [np.zeros(n, dtype=bool), Subset.from_indices(n, [n - 1]).mask, np.ones(n, dtype=bool)]
    rows += [random_subset(n, rng).mask for _ in range(5)]
    return np.array(rows)


@pytest.mark.parametrize("spec", ["A:5", "PSL2:7"])
@pytest.mark.parametrize("route", ["dense", "translates"])
def test_convolve_rows_counts_products_and_arcs(spec, route, monkeypatch):
    """Both routes give the pair counts, the product sets and the arc counts."""
    ctx = get_context(spec)
    g, n = ctx.group, ctx.n
    if route == "translates":
        monkeypatch.setattr(spectral, "DENSE_CAP", n - 1)
        # blocks of three rows, so the row blocking is exercised too
        monkeypatch.setattr(spectral, "_CHUNK_ROWS", 3 * n)
    rng = np.random.default_rng(17)
    rows = kernel_rows(n, rng)
    fixed = random_subset(n, rng)
    out = convolve_rows(g, rows, fixed.mask)
    assert out.shape == rows.shape
    for r, got in zip(rows, out):
        assert got.tolist() == [pair_count(g, r, fixed, h) for h in range(n)]
        assert np.array_equal(got > 0, product_set(g, r, fixed).mask)
    # a single row gives the same row as the stack, whichever support is walked
    for r, got in zip(rows, out):
        assert np.array_equal(convolve_rows(g, r, fixed.mask), got)
    s = NormalSubset.from_classes(ctx.classes, [1])
    b = random_subset(n, rng)
    arcs = (convolve_rows(g, rows, s.mask) * b.mask).sum(axis=1)
    assert arcs.tolist() == [arc_count(s, r, b) for r in rows]


def test_mixing_batch_recounts_on_the_elements(a5, monkeypatch):
    g, tab = a5.group, a5.table
    s = NormalSubset.from_classes(a5.classes, [2])
    rng = np.random.default_rng(4)
    # B of the first pair is the whole group, so a lost arc changes e(A, B)
    pairs = [(random_subset(g.n, rng), Subset.full(g.n))]
    pairs += [(random_subset(g.n, rng), random_subset(g.n, rng)) for _ in range(20)]
    found = mixing_discrepancies(s, pairs, tab, DEFAULT)
    assert found == [mixing_discrepancy(s, a, b, tab) for a, b in pairs]
    for (a, b), (lhs, _) in zip(pairs, found):
        alpha, beta = a.size / g.n, b.size / g.n
        assert lhs == abs(arc_count(s, a, b) / (s.size * g.n) - alpha * beta)
    monkeypatch.setattr(
        spectral, "convolve_rows", lambda *args: _zero_first_max(convolve_rows(*args))
    )
    with pytest.raises(CountMismatch):
        mixing_discrepancies(s, pairs, tab, DEFAULT)


def _zero_first_max(out):
    """A miscount: the largest entry of the first row set to 0."""
    first = out.reshape(-1, out.shape[-1])[0]
    first[np.argmax(first)] = 0
    return out


# float.hex of Lanczos lambda at seed 0, and of the power-iteration lambda it
# replaced, which stopped once successive Rayleigh quotients moved by 1e-9
PSL33_LANCZOS_LAMBDA = {1: "0x1.3b13b13b13b14p-2", 11: "0x1.5555555555556p-4"}
PSL33_POWER_LAMBDA = {1: "0x1.3b13b1267512ep-2", 11: "0x1.5555554a080fbp-4"}


@pytest.fixture(scope="module")
def psl33():
    return get_context("PSL3:3")


def test_lanczos_lambda_pinned_and_resolves_few_rows(psl33, monkeypatch):
    # a fresh group, so the translate tables are built inside the count
    group = parse_group_spec("PSL3:3")
    ct = compute_classes(group)
    rows = []
    inner = group.index_of
    monkeypatch.setattr(group, "index_of", lambda r: rows.append(len(np.atleast_2d(r))) or inner(r))
    k, n = len(group.generators), group.n
    for c, want in PSL33_LANCZOS_LAMBDA.items():
        s = NormalSubset.from_classes(ct, [c])
        del rows[:]
        assert float.hex(lambda_direct(s, DEFAULT, seed=0)) == want
        # no farther from the character route than the power-iteration pin
        char = lambda_normal(
            psl33.table, NormalSubset.from_classes(psl33.classes, [c]), DEFAULT
        )
        old = float.fromhex(PSL33_POWER_LAMBDA[c])
        assert abs(float.fromhex(want) - char) <= abs(old - char)
        # the generator tables and at most the inverses; both tables through
        # `mul` resolved 2 n |S| rows (1 168 128 for class 1)
        assert sum(rows) <= (k + 1) * n


def test_lanczos_agrees_with_characters_above_the_cap(psl33):
    """Every nonidentity class of PSL3:3, within the Krylov bound of k - 1 steps."""
    ct = psl33.classes
    assert ct.group.n > spectral.DENSE_CAP
    for c in range(1, ct.n_classes):
        s = NormalSubset.from_classes(ct, [c])
        lam, steps, _ = lambda_direct(s, DEFAULT, seed=0, return_info=True)
        assert abs(lam - lambda_normal(psl33.table, s, DEFAULT)) <= 1e-12
        assert steps <= ct.n_classes - 1
