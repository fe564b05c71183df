import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from normgrowth import spectral
from normgrowth.chartable import min_nontrivial_degree
from normgrowth.distributions import (
    Distribution,
    _bnp2step_record,
    check_bnp_star,
    convolve,
    from_subset,
    l2_dist_uniform,
    random_distribution,
    sweep_wlambda,
    uniform,
    weighted_cayley_lambda,
)
from normgrowth.errors import CapExceeded, InvalidWeights
from normgrowth.growth import pair_count, product_set
from normgrowth.subsets import NormalSubset, Subset
from normgrowth.tolerances import DEFAULT, Tolerances


def point_mass(n, g):
    """All weight on element g: the uniform distribution on {g}."""
    return from_subset(Subset.from_indices(n, [g]))


def test_distribution_validation():
    with pytest.raises(InvalidWeights):
        Distribution(np.array([0.5, -0.5, 1.0]))
    with pytest.raises(InvalidWeights):
        Distribution(np.array([0.3, 0.3]))
    d = Distribution(np.array([0.25, 0.75]))
    assert d.n == 2
    # the sum is checked against the tolerance the constructor is given
    with pytest.raises(InvalidWeights):
        Distribution(np.array([0.25, 0.75]), Tolerances(dist_unit=-1.0))


@given(st.lists(st.integers(0, 100), min_size=1, max_size=12).filter(sum))
def test_distribution_normalized_weights(raw):
    w = np.array(raw, dtype=np.float64)
    d = Distribution(w / w.sum())
    assert d.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert set(d.support().tolist()) == {i for i, v in enumerate(raw) if v}


def test_builders(a5):
    n = a5.group.n
    u = uniform(n)
    assert (u.weights == 1.0 / n).all()
    p = point_mass(n, 7)
    assert p.weights[7] == 1.0 and p.weights.sum() == 1.0
    b = NormalSubset.from_classes(a5.classes, [1])
    d = from_subset(b)
    assert d.weights[b.indices].sum() == pytest.approx(1.0)
    # ||1_B/|B| - U|| has the closed form sqrt(1/|B| - 1/n)
    assert l2_dist_uniform(d) == pytest.approx(
        math.sqrt(1 / b.size - 1 / n), abs=1e-12
    )
    assert l2_dist_uniform(point_mass(2, 0)) == pytest.approx(math.sqrt(0.5))


def test_convolve_identities(a5):
    g = a5.group
    n = g.n
    u = uniform(n)
    rng = np.random.default_rng(4)
    x = random_distribution(n, rng, DEFAULT)
    assert np.allclose(convolve(g, u, x, DEFAULT).weights, u.weights, atol=1e-14)
    assert np.allclose(convolve(g, x, u, DEFAULT).weights, u.weights, atol=1e-14)
    a, b = 13, 29
    pp = convolve(g, point_mass(n, a), point_mass(n, b), DEFAULT)
    assert pp.weights[g.mul(a, b)] == pytest.approx(1.0)


def test_convolve_matches_exact_pair_probability(a5):
    g, ct = a5.group, a5.classes
    a = NormalSubset.from_classes(ct, [1])
    b = NormalSubset.from_classes(ct, [2])
    conv = convolve(g, from_subset(a), from_subset(b), DEFAULT)
    targets = np.arange(0, g.n, 11)
    pab = pair_count(g, a, b, targets) / (a.size * b.size)
    assert conv.weights[targets] == pytest.approx(pab, abs=1e-12)


def test_convolve_associative_and_sparse_path(a5, monkeypatch):
    g = a5.group
    rng = np.random.default_rng(9)
    x = random_distribution(g.n, rng, DEFAULT)
    y = random_distribution(g.n, rng, DEFAULT)
    z = random_distribution(g.n, rng, DEFAULT)
    left = convolve(g, convolve(g, x, y, DEFAULT), z, DEFAULT).weights
    right = convolve(g, x, convolve(g, y, z, DEFAULT), DEFAULT).weights
    assert np.allclose(left, right, atol=1e-10)
    # forcing the sparse path must not change the result
    dense = convolve(g, x, y, DEFAULT).weights
    monkeypatch.setattr(spectral, "DENSE_CAP", 1)
    sparse = convolve(g, x, y, DEFAULT).weights
    assert np.allclose(dense, sparse, atol=1e-12)


def test_bnp_star_uniform_and_points(a5):
    g, tab = a5.group, a5.table
    m = min_nontrivial_degree(tab)
    u = uniform(g.n)
    rec = check_bnp_star(g, m, u, u)
    assert rec.passed
    assert rec.lhs == pytest.approx(0.0, abs=1e-14)
    assert rec.rhs == pytest.approx(0.0, abs=1e-14)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = random_distribution(g.n, rng, DEFAULT)
        y = random_distribution(g.n, rng, DEFAULT)
        assert check_bnp_star(g, m, x, y).passed


def test_wlambda_extremes(a5, monkeypatch):
    g = a5.group
    assert weighted_cayley_lambda(g, uniform(g.n)) <= DEFAULT.slack
    assert weighted_cayley_lambda(g, point_mass(g.n, 0)) == pytest.approx(1.0)
    monkeypatch.setattr(spectral, "DENSE_CAP", 10)
    with pytest.raises(CapExceeded):
        weighted_cayley_lambda(g, uniform(g.n))


def test_wlambda_contraction_bound(a5):
    g, tab = a5.group, a5.table
    m = min_nontrivial_degree(tab)
    rng = np.random.default_rng(2)
    for _ in range(10):
        y = random_distribution(g.n, rng, DEFAULT)
        lam = weighted_cayley_lambda(g, y)
        assert lam <= math.sqrt(g.n / m) * l2_dist_uniform(y) + DEFAULT.slack


def test_sweep_wlambda_uniform_y_passes(a5):
    # at seed 1 a sparse Y covers all of A:5: the bound is 0 and lambda must be too
    rep = sweep_wlambda(a5, trials=100, seed=1)
    assert rep.results and rep.fail_count == 0


def test_wlambda_governs_all_convolutions(a5):
    """lambda is the operator norm: no X can contract worse than it."""
    g = a5.group
    rng = np.random.default_rng(3)
    y = random_distribution(g.n, rng, DEFAULT)
    lam = weighted_cayley_lambda(g, y)
    worst = 0.0
    for _ in range(30):
        x = random_distribution(g.n, rng, DEFAULT)
        base = l2_dist_uniform(x)
        if base == 0.0:
            continue
        worst = max(worst, l2_dist_uniform(convolve(g, x, y, DEFAULT)) / base)
    assert worst <= lam + 1e-6


def test_bnp_two_step(a5):
    g, tab = a5.group, a5.table
    m = min_nontrivial_degree(tab)

    def check_bnp_two_step(a, b):
        return _bnp2step_record(g, m, a.size, b.size, product_set(g, a, b).size, "")

    one = Subset.from_indices(g.n, [0])
    rec = check_bnp_two_step(one, one)
    # |AB| = 1 still beats n/(1 + n^2/m) by a hair
    assert rec.passed
    assert rec.lhs == 1.0
    assert rec.rhs == pytest.approx(g.n / (1 + g.n * g.n / 3), abs=1e-12)
    full = Subset.full(g.n)
    rec = check_bnp_two_step(full, full)
    assert rec.passed and rec.lhs == g.n
