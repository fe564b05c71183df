import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import run_child

from normgrowth import spectral
from normgrowth.chartable import character_ratio, compute_character_table
from normgrowth.context import get_context, parse_group_spec
from normgrowth.errors import CountMismatch, EmptySubset, NoConvergence
from normgrowth.growth import pair_count, product_set
from normgrowth.permgroup import Permutation, closure, compute_classes
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
    enumerate_normal_subsets,
    parse_subset_expr,
    random_normal_subset,
    random_subset,
)
from normgrowth.tolerances import DEFAULT, Tolerances


def test_eigenvalues_all_nonidentity(a5):
    s = parse_subset_expr("all-nonid", a5.classes)
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
    # the dense solve, then the Krylov route: S = G is its empty complement,
    # no walk at all, and S = {1} settles in one step
    for cap, ident_steps in ((spectral.DENSE_CAP, 0), (1, 1)):
        monkeypatch.setattr(spectral, "DENSE_CAP", cap)
        for ctx in (a5, s5, psl27, psl211):
            ct = ctx.classes
            # S = G mixes in one step: lambda is 0, not the square root of rounding noise
            full = NormalSubset.from_classes(ct, range(ct.n_classes))
            lam, took, _ = lambda_direct(full, DEFAULT, return_info=True)
            assert lam <= DEFAULT.slack
            assert took == 0
            if cap == 1:
                # walked itself, S = G leaves only rounding noise, below the |S| ulp floor
                lam, took, _ = spectral._lanczos_lambda(full, 0, DEFAULT)
                assert lam <= DEFAULT.slack
                assert took == 1
            ident = NormalSubset.from_classes(ct, [0])
            lam, took, _ = lambda_direct(ident, DEFAULT, return_info=True)
            assert lam == pytest.approx(1.0, abs=1e-12)
            assert took == ident_steps


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
            lambda_normal(ctx.table, s, DEFAULT), abs=1e-12
        )


# every group of the central route's agreement and table tests, two closures
# without a spec string among them
CENTRAL_GROUPS = {
    **{spec: (lambda spec=spec: parse_group_spec(spec))
       for spec in ("A:5", "S:5", "PSL2:7", "PSL2:11", "PSL3:2", "PSL2:13")},
    "C6": lambda: closure([Permutation.from_cycles([(0, 1, 2, 3, 4, 5)], 6)]),
    "trivial": lambda: closure([Permutation((0,))], cap=2),
}


@functools.lru_cache(maxsize=None)
def central_tables(name):
    """(group, class table, certified character table) of a CENTRAL_GROUPS entry."""
    group = CENTRAL_GROUPS[name]()
    ct = compute_classes(group)
    return group, ct, compute_character_table(group, ct, DEFAULT)


@pytest.mark.parametrize("name", list(CENTRAL_GROUPS))
def test_central_route_agrees_on_every_union(name):
    """The joint eigenvalues give the blocked solve's and the characters' lambda.

    Every union of classes, to 1e-12.  S:5's largest element order is 6, so
    its transpositions' walk is bipartite: lambda = 1 from the sign
    character alone, in the Nyquist block l = m/2.
    """
    group, ct, tab = central_tables(name)
    for s in enumerate_normal_subsets(ct):
        lam, steps, residual = lambda_direct(s, DEFAULT, return_info=True)
        assert spectral.lambda_route(s) == "central" and steps == 0
        assert residual == ct.spectrum[1]
        assert abs(lam - deflated_lambda(group, s.mask / s.size)) <= 1e-12
        assert abs(lam - lambda_normal(tab, s, DEFAULT)) <= 1e-12
    full = NormalSubset.from_classes(ct, range(ct.n_classes))
    assert lambda_direct(full, DEFAULT) <= DEFAULT.slack
    if group.n > 1:
        ident = NormalSubset.from_classes(ct, [0])
        assert lambda_direct(ident, DEFAULT) == pytest.approx(1.0, abs=1e-12)
    if name == "S:5":
        m = group.cyclic_cosets().shape[1]
        (swaps,) = [c for c in range(ct.n_classes) if ct.sizes[c] == 10 and ct.rep_orders[c] == 2]
        lam = lambda_direct(NormalSubset.from_classes(ct, [swaps]), DEFAULT)
        assert lam == pytest.approx(1.0, abs=1e-12)
        # |d| reaches |C| only in block m/2; the degree-4 characters give |C|/2
        top = np.abs(ct.spectrum[0][swaps]).max(axis=1)
        assert m == 6 and top[m // 2] == pytest.approx(10.0, abs=1e-12)
        assert top[: m // 2].max() <= 5.0 + 1e-12


@pytest.mark.parametrize("name", list(CENTRAL_GROUPS))
def test_central_spectrum_is_the_character_table(name):
    """The element side's joint eigenvalues are the central characters, with multiplicity chi(1)^2.

    A column d[:, l, i] must be |C_c| chi(g_c) / chi(1), less |C_c| for the
    deflated trivial character.  Block m - l is conj(B_l), where each
    column becomes that of the complex conjugate character, so counting
    every column of 0 < l < m/2 once more, conjugated, covers all m blocks.
    """
    group, ct, tab = central_tables(name)
    d, _ = spectral.central_spectrum(ct)
    m = group.cyclic_cosets().shape[1]
    omega = ct.sizes * tab.values / tab.degrees[:, None]
    omega[0] -= ct.sizes
    counts = np.zeros(tab.n_classes, dtype=int)
    for l in range(m // 2 + 1):
        cols = d[:, l].T
        if 0 < l < m - l:
            cols = np.concatenate([cols, cols.conj()])
        dist = np.abs(cols[:, None, :] - omega[None]).max(axis=2)
        near = dist.argmin(axis=1)
        assert dist[np.arange(len(cols)), near].max() <= 1e-9
        np.add.at(counts, near, 1)
    assert np.array_equal(counts, np.rint(tab.degrees).astype(int) ** 2)


def _split_class(ct, c):
    """A copy of ct with class c cut in two by element index: a partition into non-central sets."""
    members = ct.classes[c]
    cut = members.size // 2
    class_of = ct.class_of.copy()
    class_of[members[:cut]] = ct.n_classes
    classes = ct.classes[:c] + (members[cut:],) + ct.classes[c + 1 :] + (members[:cut],)
    sizes = np.array([part.size for part in classes])
    return dataclasses.replace(ct, class_of=class_of, classes=classes, sizes=sizes)


def test_split_class_fails_the_certificate(a5):
    """Half of A:5's 12 five-cycles is not closed under inverses.

    Its block is not normal, so no unitary diagonalises it and the
    certificate raises on every seed; nothing is cached.  Half of the 15
    involutions is its own inverse and commutes with every class sum and
    with the other half, so the blocks stay normal and commuting: the
    certificate holds, and so does lambda of every union of the cut
    partition.
    """
    ct = a5.classes
    spectral.central_spectrum(ct)
    assert ct.sizes[1] == 12 and ct.rep_orders[1] == 5
    bad = _split_class(ct, 1)
    # the copy does not inherit the original's cached spectrum
    assert ct.spectrum is not None and bad.spectrum is None
    with pytest.raises(NoConvergence):
        spectral.central_spectrum(bad)
    assert bad.spectrum is None
    with pytest.raises(NoConvergence):
        lambda_direct(NormalSubset.from_classes(bad, [2]), DEFAULT)
    assert ct.sizes[3] == 15 and ct.rep_orders[3] == 2
    halves = _split_class(ct, 3)
    for s in enumerate_normal_subsets(halves):
        assert abs(lambda_direct(s, DEFAULT) - deflated_lambda(a5.group, s.mask / s.size)) <= 1e-12


def test_split_class_raises_under_python_O():
    """The certificate is a typed error, not an assert that -O strips."""
    script = (
        "import dataclasses\n"
        "import numpy as np\n"
        "from normgrowth import spectral\n"
        "from normgrowth.context import parse_group_spec\n"
        "from normgrowth.errors import NoConvergence\n"
        "from normgrowth.permgroup import compute_classes\n"
        "ct = compute_classes(parse_group_spec('A:5'))\n"
        "five = ct.classes[1]\n"
        "class_of = ct.class_of.copy()\n"
        "class_of[five[:6]] = ct.n_classes\n"
        "classes = (ct.classes[0], five[6:]) + ct.classes[2:] + (five[:6],)\n"
        "sizes = np.array([part.size for part in classes])\n"
        "bad = dataclasses.replace(ct, class_of=class_of, classes=classes, sizes=sizes)\n"
        "try:\n"
        "    print('returned', spectral.central_spectrum(bad)[1])\n"
        "except NoConvergence:\n"
        "    print('NoConvergence', __debug__, bad.spectrum is None)\n"
    )
    assert run_child(script, "-O").split() == ["NoConvergence", "False", "True"]


def test_central_route_yields_to_the_blocked_solve_past_its_budget(psl27, s5, monkeypatch):
    """With no budget, lambda_direct solves each set's blocks and builds no joint eigenvalues."""
    cases = [(ctx, s) for ctx in (psl27, s5) for s in enumerate_normal_subsets(ctx.classes)]
    central = [lambda_direct(s, DEFAULT) for _, s in cases]
    monkeypatch.setattr(spectral, "CENTRAL_BUDGET", 0)
    monkeypatch.setattr(spectral, "central_spectrum", _no_central)
    for (ctx, s), want in zip(cases, central):
        assert spectral.lambda_route(s) == "dense"
        assert lambda_direct(s, DEFAULT, return_info=True)[1:] == (0, 0.0)
        assert abs(lambda_direct(s, DEFAULT) - want) <= 1e-12


def _no_central(*_):
    raise AssertionError("the central route ran past its budget")


def test_central_spectrum_ignores_the_callers_seed(monkeypatch):
    """Two fresh class tables of one group, asked with seeds 0 then 3 and 3 then 0.

    Each builds once, and both cache the same bits.
    """
    group = parse_group_spec("PSL2:11")
    built = []
    build = spectral._diagonalise_class_blocks
    monkeypatch.setattr(
        spectral, "_diagonalise_class_blocks", lambda ct: built.append(1) or build(ct)
    )
    kept = []
    for seeds in ((0, 3), (3, 0)):
        ct = compute_classes(group)
        assert ct.spectrum is None
        s = NormalSubset.from_classes(ct, [2, 5])
        lams = [lambda_direct(s, DEFAULT, seed=seed) for seed in seeds]
        assert lams[0] == lams[1]
        kept.append(ct.spectrum)
    assert len(built) == 2
    (d0, r0), (d3, r3) = kept
    assert d0.tobytes() == d3.tobytes() and r0 == r3


def test_lanczos_matches_dense(psl27, s5, monkeypatch):
    """S:5's x has even order 6, so the Krylov route walks the real block l = m/2."""
    subsets = [
        NormalSubset.from_classes(ctx.classes, [c])
        for ctx in (psl27, s5)
        for c in range(1, ctx.classes.n_classes)
    ]
    dense = [lambda_direct(s, DEFAULT) for s in subsets]
    monkeypatch.setattr(spectral, "DENSE_CAP", 1)
    for s, want in zip(subsets, dense):
        assert abs(lambda_direct(s, DEFAULT) - want) <= 1e-12


@pytest.mark.parametrize("fixture", ["a5", "psl27", "s5"])
def test_krylov_route_agrees_with_characters_on_every_union(fixture, request, monkeypatch):
    """Unions of more than n/2 elements go through their complement.

    A:5 and PSL2:7 have an odd largest element order m; S:5's m = 6 adds
    the block l = m/2, where the sign character of S:5 lives.
    """
    ctx = request.getfixturevalue(fixture)
    assert ctx.group.cyclic_cosets().shape[1] % 2 == (fixture != "s5")
    monkeypatch.setattr(spectral, "DENSE_CAP", 1)
    for s in enumerate_normal_subsets(ctx.classes):
        lam, steps, _ = lambda_direct(s, DEFAULT, return_info=True)
        assert abs(lam - lambda_normal(ctx.table, s, DEFAULT)) <= 1e-12
        assert steps <= ctx.classes.n_classes - 1


def _no_translates(*_):
    raise AssertionError("the Krylov route built a translate table")


def test_large_unions_walk_the_smaller_complement(monkeypatch):
    """On A:8 no coset table has more than n/2 rows of S; S = G builds none."""
    ctx = get_context("A:8")
    ct, n = ctx.classes, ctx.n
    asked = []
    build = spectral._coset_table
    monkeypatch.setattr(spectral, "_coset_table", lambda s: asked.append(s.size) or build(s))
    monkeypatch.setattr(ctx.group, "right_translates", _no_translates)
    # the commutator word's image is all of A8
    full = parse_subset_expr("word:xyXY", ct)
    assert full.size == n
    assert lambda_direct(full, DEFAULT, return_info=True) == (0.0, 0, 0.0)
    assert asked == []
    every = set(range(ct.n_classes))
    for drop in ((0,), (1,), (0, 2), (13,)):
        s = NormalSubset.from_classes(ct, every - set(drop))
        assert 2 * s.size > n
        assert abs(lambda_direct(s, DEFAULT) - lambda_normal(ctx.table, s, DEFAULT)) <= 1e-12
    assert asked and max(asked) <= n // 2


def test_lanczos_step_cap_raises(a5, monkeypatch):
    """A stop rule that never holds runs into the cap: exactly k walks, then an error."""
    s = NormalSubset.from_classes(a5.classes, [1])
    monkeypatch.setattr(spectral, "DENSE_CAP", 1)
    # a negative tolerance and a negative rounding floor: no residual is small enough
    monkeypatch.setattr(spectral, "_ULP", -1.0)
    steps = []
    inner = spectral._coset_walk
    monkeypatch.setattr(spectral, "_coset_walk", lambda *a: steps.append(1) or inner(*a))
    with pytest.raises(NoConvergence):
        lambda_direct(s, Tolerances(lanczos_tol=-1.0))
    # one walk, M v, per Krylov step
    assert len(steps) == a5.classes.n_classes


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
    assert rep.method == "central"
    assert rep.steps == 0
    # n/m = 24 on PSL2:7
    bound = spectral.CENTRAL_ULPS * 24 * spectral._ULP * max(psl27.classes.sizes)
    assert 0.0 <= rep.residual <= bound
    assert rep.agree()
    assert len(rep.char_eigenvalues) == psl27.classes.n_classes
    monkeypatch.setattr(spectral, "CENTRAL_BUDGET", 0)
    rep = spectral_report(psl27.group, psl27.classes, psl27.table, s, "class:1")
    assert rep.method == "dense"
    assert (rep.steps, rep.residual) == (0, 0.0)
    assert rep.agree()
    monkeypatch.setattr(spectral, "DENSE_CAP", 1)
    rep = spectral_report(psl27.group, psl27.classes, psl27.table, s, "class:1")
    assert rep.method == "lanczos"
    assert 1 <= rep.steps <= psl27.classes.n_classes - 1
    assert 0.0 <= rep.residual <= max(DEFAULT.lanczos_tol * rep.lambda_direct, s.size * spectral._ULP)
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


# float.hex of the Krylov-route lambda (Arnoldi on the coset blocks of M0) at
# seed 0, and of the power-iteration lambda that an earlier route gave, which
# stopped once successive Rayleigh quotients moved by 1e-9.  The Arnoldi
# route on the |S| x n translate table gave 0x1.3b13b13b13b12p-2 for class 1
# and 0x1.5555555555550p-4 for class 11; the character values are
# 0x1.3b13b13b13b16p-2 (4/13) and 0x1.555555555554dp-4 (1/12).
PSL33_LANCZOS_LAMBDA = {1: "0x1.3b13b13b13b10p-2", 11: "0x1.5555555555559p-4"}
PSL33_POWER_LAMBDA = {1: "0x1.3b13b1267512ep-2", 11: "0x1.5555554a080fbp-4"}


@pytest.fixture(scope="module")
def psl33():
    return get_context("PSL3:3")


def test_lanczos_lambda_pinned_and_resolves_few_rows(psl33, monkeypatch):
    # a fresh group, so the spanning tree and the cosets are built inside the count
    group = parse_group_spec("PSL3:3")
    ct = compute_classes(group)
    rows = []
    inner = group.index_of
    monkeypatch.setattr(group, "index_of", lambda r: rows.append(len(np.atleast_2d(r))) or inner(r))
    monkeypatch.setattr(group, "right_translates", _no_translates)
    tables, walked = [], set()
    build = spectral._coset_table
    monkeypatch.setattr(spectral, "_coset_table", lambda s: tables.append(build(s)) or tables[-1])
    walk = spectral._coset_walk
    monkeypatch.setattr(spectral, "_coset_walk", lambda u, t, p: walked.add(id(t)) or walk(u, t, p))
    k, n = len(group.generators), group.n
    for c, want in PSL33_LANCZOS_LAMBDA.items():
        s = NormalSubset.from_classes(ct, [c])
        del rows[:], tables[:]
        walked.clear()
        assert float.hex(lambda_direct(s, DEFAULT, seed=0)) == want
        # one |S| x (n/m) coset table, and every walk reads it: no |S| x n table
        m = group.cyclic_cosets().shape[1]
        assert [t.shape for t in tables] == [(s.size, n // m)]
        assert walked == {id(tables[0])}
        # no farther from the character route than the power-iteration pin
        char = lambda_normal(
            psl33.table, NormalSubset.from_classes(psl33.classes, [c]), DEFAULT
        )
        old = float.fromhex(PSL33_POWER_LAMBDA[c])
        assert abs(float.fromhex(want) - char) <= abs(old - char)
        # the generator tables, the inverses, the m powers of x and the
        # coset table's |S| n/m products (44 928 for class 1, where one
        # |S| x n table through `mul` would resolve 584 064)
        assert sum(rows) <= (k + 1) * n + m + s.size * (n // m)


def test_lanczos_agrees_with_characters_above_the_cap(psl33):
    """Every nonidentity class of PSL3:3 and A:8, within the Krylov bound of k - 1 steps.

    Both groups have non-real classes, whose Ritz values are complex.
    """
    for ctx in (psl33, get_context("A:8")):
        ct = ctx.classes
        assert ct.group.n > spectral.DENSE_CAP
        assert not ct.is_real.all()
        for c in range(1, ct.n_classes):
            s = NormalSubset.from_classes(ct, [c])
            lam, steps, _ = lambda_direct(s, DEFAULT, seed=0, return_info=True)
            assert abs(lam - lambda_normal(ctx.table, s, DEFAULT)) <= 1e-12
            assert steps <= ct.n_classes - 1


def test_lanczos_memory_stays_at_the_coset_table():
    """lambda of A:8's class of 3 360 peaks well under one |S| x n table.

    The coset table is |S| x n/m = 3 360 x 1 344 int32, 18 MB, and the walk
    holds n x (m//2 + 1) complex entries, 2.6 MB.  Under `tracemalloc` the
    coset route peaks at 70 MB; Arnoldi over the |S| x n table of
    `right_translates`, which it replaced, peaked at 262 MB.
    """
    ctx = get_context("A:8")
    s = NormalSubset.from_classes(ctx.classes, [13])
    assert s.size == 3360
    tracemalloc.start()
    try:
        lam = lambda_direct(s, DEFAULT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(lam - lambda_normal(ctx.table, s, DEFAULT)) <= 1e-12
    assert peak <= 128 * 2**20
