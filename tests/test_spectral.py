import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import PRINT_PEAK_KB, run_child

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


def test_lambda_direct_extremes(a5, s5, psl27, psl211):
    """S = G mixes in one step and S = {1} never mixes: lambda 0 and 1 from the class characters."""
    for ctx in (a5, s5, psl27, psl211):
        ct = ctx.classes
        full = NormalSubset.from_classes(ct, range(ct.n_classes))
        lam, residual = lambda_direct(full, DEFAULT, return_info=True)
        assert lam <= DEFAULT.slack
        assert residual == ct.spectrum.residual <= spectral.CHARACTER_CERTIFY
        ident = NormalSubset.from_classes(ct, [0])
        assert lambda_direct(ident, DEFAULT) == pytest.approx(1.0, abs=1e-12)


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
    """The class characters give the blocked solve's and the characters' lambda.

    Every union of classes, to 1e-12.  S:5's largest element order is 6, so
    its transpositions' walk is bipartite: lambda = 1 from the sign
    character alone, whose isotypic part lies in the Nyquist block l = m/2.
    """
    group, ct, tab = central_tables(name)
    for s in enumerate_normal_subsets(ct):
        lam, residual = lambda_direct(s, DEFAULT, return_info=True)
        assert residual == ct.spectrum.residual <= spectral.CHARACTER_CERTIFY
        assert abs(lam - deflated_lambda(group, s.mask / s.size)) <= 1e-12
        assert abs(lam - lambda_normal(tab, s, DEFAULT)) <= 1e-12
    full = NormalSubset.from_classes(ct, range(ct.n_classes))
    assert lambda_direct(full, DEFAULT) <= DEFAULT.slack
    if group.n > 1:
        ident = NormalSubset.from_classes(ct, [0])
        assert lambda_direct(ident, DEFAULT) == pytest.approx(1.0, abs=1e-12)
    if name == "S:5":
        assert group.cyclic_cosets().shape[1] == 6
        (swaps,) = [c for c in range(ct.n_classes) if ct.sizes[c] == 10 and ct.rep_orders[c] == 2]
        lam = lambda_direct(NormalSubset.from_classes(ct, [swaps]), DEFAULT)
        assert lam == pytest.approx(1.0, abs=1e-12)
        # |omega| reaches |C| on the sign character alone; the degree-4 characters give |C|/2
        top = np.sort(np.abs(ct.spectrum.omega[1:, swaps]))
        assert top[-1] == pytest.approx(10.0, abs=1e-12)
        assert top[-2] <= 5.0 + 1e-12


@pytest.mark.parametrize("name", list(CENTRAL_GROUPS))
def test_central_spectrum_is_the_character_table(name):
    """The class characters are the certified table's central characters, with its degrees.

    Row chi must be |C_c| chi(g_c) / chi(1), one row per character.  C6's
    cyclic subgroup is the whole group, so its single coset gives blocks
    l <= 3 of dimension one: the characters of l = 4, 5 are seen only
    through their conjugates and come in as conjugate rows.
    """
    group, ct, tab = central_tables(name)
    chars = spectral.class_characters(ct)
    want = ct.sizes * tab.values / tab.degrees[:, None]
    dist = (np.abs(chars.omega[:, None] - want[None]) / ct.sizes).max(axis=2)
    match = dist.argmin(axis=1)
    assert sorted(match.tolist()) == list(range(ct.n_classes))
    assert dist[np.arange(ct.n_classes), match].max() <= 1e-12
    assert np.array_equal(chars.degrees, np.rint(tab.degrees[match]))
    assert chars.residual <= spectral.CHARACTER_CERTIFY


def _split_class(ct, c):
    """A copy of ct with class c cut in two by element index: a partition into non-central sets."""
    members = ct.classes[c]
    cut = members.size // 2
    class_of = ct.class_of.copy()
    class_of[members[:cut]] = ct.n_classes
    classes = ct.classes[:c] + (members[cut:],) + ct.classes[c + 1 :] + (members[:cut],)
    sizes = np.array([part.size for part in classes])
    return dataclasses.replace(ct, class_of=class_of, classes=classes, sizes=sizes)


# (group, class, its size) of each cut partition: half of A:5's twelve
# 5-cycles, which is not closed under inverses; half of its fifteen
# involutions, which is; and half of PSL2:7's 56 elements of order 3
SPLIT_CASES = (("A:5", 1, 12), ("A:5", 3, 15), ("PSL2:7", 5, 56))


def test_split_class_fails_the_certificate():
    """A cut partition's block sums are not all central, so its rows are not characters.

    The certificate fails on every seed, the build raises NoConvergence, and
    nothing is cached.  Half of the involutions passed the certificate of
    the joint diagonalisation that the build replaced; its degrees are not
    integers.
    """
    for spec, c, size in SPLIT_CASES:
        ct = get_context(spec).classes
        spectral.class_characters(ct)
        assert ct.sizes[c] == size
        bad = _split_class(ct, c)
        # the copy does not inherit the original's cached characters
        assert ct.spectrum is not None and bad.spectrum is None
        with pytest.raises(NoConvergence):
            spectral.class_characters(bad)
        assert bad.spectrum is None
        with pytest.raises(NoConvergence):
            lambda_direct(NormalSubset.from_classes(bad, [2]), DEFAULT)


def test_split_class_raises_under_python_O():
    """The certificate is a typed error, not an assert that -O strips."""
    script = (
        "import dataclasses\n"
        "import numpy as np\n"
        "from normgrowth import spectral\n"
        "from normgrowth.context import parse_group_spec\n"
        "from normgrowth.errors import NoConvergence\n"
        "from normgrowth.permgroup import compute_classes\n"
        f"for spec, c, _ in {SPLIT_CASES!r}:\n"
        "    ct = compute_classes(parse_group_spec(spec))\n"
        "    members = ct.classes[c]\n"
        "    cut = members.size // 2\n"
        "    class_of = ct.class_of.copy()\n"
        "    class_of[members[:cut]] = ct.n_classes\n"
        "    classes = ct.classes[:c] + (members[cut:],) + ct.classes[c + 1 :] + (members[:cut],)\n"
        "    sizes = np.array([part.size for part in classes])\n"
        "    bad = dataclasses.replace(ct, class_of=class_of, classes=classes, sizes=sizes)\n"
        "    try:\n"
        "        print('returned', spectral.class_characters(bad).residual)\n"
        "    except NoConvergence:\n"
        "        print('NoConvergence', __debug__, bad.spectrum is None)\n"
    )
    assert run_child(script, "-O").split() == ["NoConvergence", "False", "True"] * len(SPLIT_CASES)


def test_central_elements_that_do_not_fit_the_rows_fail_the_certificate(monkeypatch):
    """The certificate checks the rows against both central elements of the second walk.

    From A:5's two walks: with W^H Z of the first theta swapped for W^H W,
    as if theta were the identity's class sum alone, there is one
    eigenvalue, any basis diagonalises it, and the rows read off that basis
    are not characters.  With the rows left alone but theta' changed after
    its walk, the rows predict eigenvalues that the second element does not
    have: only that term of the certificate moves.
    """
    ct = compute_classes(parse_group_spec("A:5"))
    seen = []
    solve = spectral._solve_class_characters
    monkeypatch.setattr(spectral, "_solve_class_characters", lambda *args: seen.append(args) or solve(*args))
    spectral.class_characters(ct)
    gw, gz, theta, sizes = seen[0]
    assert solve(gw, gz, theta, sizes).residual <= spectral.CHARACTER_CERTIFY
    assert solve(gw, np.stack([gw, gz[1]]), theta, sizes).residual > 1e-3
    other = np.stack([theta[:, 0], np.roll(theta[:, 1], 1)], axis=1)
    assert solve(gw, gz, other, sizes).residual > 1e-3


def test_central_spectrum_ignores_the_callers_seed(monkeypatch):
    """Two fresh class tables of one group, asked with seeds 0 then 3 and 3 then 0.

    Each builds once, and both cache the same bits.
    """
    group = parse_group_spec("PSL2:11")
    built = []
    build = spectral._build_class_characters
    monkeypatch.setattr(spectral, "_build_class_characters", lambda ct: built.append(1) or build(ct))
    kept = []
    for seeds in ((0, 3), (3, 0)):
        ct = compute_classes(group)
        assert ct.spectrum is None
        s = NormalSubset.from_classes(ct, [2, 5])
        lams = [lambda_direct(s, DEFAULT, seed=seed) for seed in seeds]
        assert lams[0] == lams[1]
        kept.append(ct.spectrum)
    assert len(built) == 2
    first, second = kept
    assert first.omega.tobytes() == second.omega.tobytes() and first.residual == second.residual


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


def test_spectral_report(psl27):
    s = NormalSubset.from_classes(psl27.classes, [1])
    rep = spectral_report(
        psl27.group, psl27.classes, psl27.table, s, "class:1"
    )
    assert rep.method == "central"
    assert rep.residual == psl27.classes.spectrum.residual
    assert 0.0 <= rep.residual <= spectral.CHARACTER_CERTIFY
    assert rep.agree()
    assert len(rep.char_eigenvalues) == psl27.classes.n_classes


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


def _full_walk_convolution(g, rows, weights):
    """The translate routes of `convolve_rows` on whole-group translates: the bitwise reference.

    Each h sums its terms in the same order, g (or f) ascending, zero terms
    included.
    """
    n = g.n
    support = np.flatnonzero(weights)
    if rows.ndim == 1 and np.count_nonzero(rows) <= support.size:
        out = np.zeros(n)
        nonzero = np.flatnonzero(rows)
        for lo in range(0, nonzero.size, 64):
            for x, left in zip(nonzero[lo : lo + 64], g.left_translates(nonzero[lo : lo + 64])):
                out[left] += rows[x] * weights
        return out
    block = rows.reshape(-1, n)
    out = np.zeros_like(block)
    for lo in range(0, support.size, 64):
        for f, right in zip(support[lo : lo + 64], g.right_translates(support[lo : lo + 64])):
            out[:, right] += weights[f] * block
    return out.reshape(rows.shape)


def _weighted(n, density, rng):
    """Signed random weights on a random support of about `density` n elements."""
    return np.where(rng.random(n) < density, rng.standard_normal(n), 0.0)


# (rows' density, a tuple of them for a stack, and w's density); the cases
# named "full" add from a support that is all of G, which asks for no columns
CONVOLUTION_DENSITIES = {
    "sparse-sparse": (0.02, 0.03),
    "sparse-dense": (0.02, 0.6),
    "sparse-full": (0.02, 1.0),
    "dense-sparse": (0.6, 0.02),
    "dense-dense": (0.6, 0.7),
    "stack": ((0.02, 0.2, 0.0), 0.05),
    "stack-full": ((0.3, 1.0), 0.05),
}


@pytest.mark.parametrize("case", sorted(CONVOLUTION_DENSITIES))
@pytest.mark.parametrize("spec", ["A:5", "PSL2:7", "PSL3:3"])
def test_convolve_rows_translates_match_the_full_walk_bitwise(spec, case, monkeypatch):
    """Above the cap, the column-restricted translates give the full walk's floats, bit for bit."""
    g = get_context(spec).group
    n = g.n
    if n <= spectral.DENSE_CAP:
        monkeypatch.setattr(spectral, "DENSE_CAP", n - 1)
    asked = []
    for name in ("left_translates", "right_translates"):
        real = getattr(g, name)
        monkeypatch.setattr(g, name, lambda a, cols=None, real=real: asked.append(cols) or real(a, cols))
    rng = np.random.default_rng(23)
    row_density, weight_density = CONVOLUTION_DENSITIES[case]
    if isinstance(row_density, tuple):
        rows = np.stack([_weighted(n, d, rng) for d in row_density])
    else:
        rows = _weighted(n, row_density, rng)
    weights = _weighted(n, weight_density, rng)
    weights[rng.integers(n)] = 0.5  # no empty support on the smallest groups
    got = convolve_rows(g, rows, weights)
    assert asked and all((cols is None) == ("full" in case) for cols in asked)
    assert got.tobytes() == _full_walk_convolution(g, rows, weights).tobytes()


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


# float.hex of lambda from the class characters of PSL3:3 at its fixed seeds,
# and of the power-iteration lambda that an earlier route gave, which
# stopped once successive Rayleigh quotients moved by 1e-9.  The character
# values are 0x1.3b13b13b13b16p-2 (4/13) and 0x1.555555555554dp-4 (1/12).
PSL33_CHARACTER_LAMBDA = {1: "0x1.3b13b13b13b27p-2", 11: "0x1.5555555555516p-4"}
PSL33_POWER_LAMBDA = {1: "0x1.3b13b1267512ep-2", 11: "0x1.5555554a080fbp-4"}


@pytest.fixture(scope="module")
def psl33():
    return get_context("PSL3:3")


def _no_translates(*_):
    raise AssertionError("the build formed a right translate table")


def test_class_characters_pinned_and_resolve_few_rows(psl33, monkeypatch):
    """The build walks left translates and resolves no image row of its own.

    On a fresh group the only rows resolved are the m - 1 powers of x that
    `cyclic_cosets` forms with `mul`.
    """
    group = parse_group_spec("PSL3:3")
    ct = compute_classes(group)
    rows = []
    inner = group.index_of
    monkeypatch.setattr(group, "index_of", lambda r: rows.append(len(np.atleast_2d(r))) or inner(r))
    monkeypatch.setattr(group, "right_translates", _no_translates)
    for c, want in PSL33_CHARACTER_LAMBDA.items():
        s = NormalSubset.from_classes(ct, [c])
        assert float.hex(lambda_direct(s, DEFAULT, seed=0)) == want
        # no farther from the character route than the power-iteration pin
        char = lambda_normal(
            psl33.table, NormalSubset.from_classes(psl33.classes, [c]), DEFAULT
        )
        old = float.fromhex(PSL33_POWER_LAMBDA[c])
        assert abs(float.fromhex(want) - char) <= abs(old - char)
    assert sum(rows) == group.cyclic_cosets().shape[1] - 1


def test_class_characters_agree_above_the_cap(psl33):
    """Every class of PSL3:3 and A:8, and A:8's unions of more than n/2 elements.

    Both groups have non-real classes, whose central characters are complex.
    """
    for ctx in (psl33, get_context("A:8")):
        ct = ctx.classes
        assert ct.group.n > spectral.DENSE_CAP
        assert not ct.is_real.all()
        for c in range(ct.n_classes):
            s = NormalSubset.from_classes(ct, [c])
            assert abs(lambda_direct(s, DEFAULT) - lambda_normal(ctx.table, s, DEFAULT)) <= 1e-12
        every = set(range(ct.n_classes))
        for drop in ((0,), (1,), (0, 2), (ct.n_classes - 1,)):
            s = NormalSubset.from_classes(ct, every - set(drop))
            assert 2 * s.size > ctx.n
            assert abs(lambda_direct(s, DEFAULT) - lambda_normal(ctx.table, s, DEFAULT)) <= 1e-12
        assert ct.spectrum.residual <= spectral.CHARACTER_CERTIFY


# the A:8 build's peak above the resident set it starts from, in MB; 9.2 MB
# measured.  It holds W, k (n/m) (m//2 + 1) complex entries (2.4 MB), the
# two start vectors of the second walk (0.3 MB) and one block of
# `_class_walks` (about 2 MB at WALK_BLOCK), besides the pages LAPACK and
# the allocator keep; one (n/m) x n table of translates would be 108 MB of
# int32
BUILD_PEAK_MB = 16


def test_class_characters_memory_in_a_child():
    """The A:8 build, in a fresh interpreter: its high-water mark over its starting resident set."""
    script = (
        "from normgrowth import spectral\n"
        "from normgrowth.context import parse_group_spec\n"
        "from normgrowth.permgroup import compute_classes\n"
        "ct = compute_classes(parse_group_spec('A:8'))\n"
        "ct.group.coset_positions()\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(next(line.split()[1] for line in fh if line.startswith('VmRSS:')))\n"
        "print(spectral.class_characters(ct).residual)\n"
        + PRINT_PEAK_KB
    )
    start_kb, residual, peak_kb = run_child(script).split()
    assert float(residual) <= spectral.CHARACTER_CERTIFY
    assert (int(peak_kb) - int(start_kb)) / 1024 <= BUILD_PEAK_MB
