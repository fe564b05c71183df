import math
from fractions import Fraction

import numpy as np
import pytest

from normgrowth.chartable import character_ratio, r_extremes
from normgrowth.errors import NotLieType, TrivialSubset
from normgrowth.growth import (
    check_2step,
    check_asymp,
    check_gowers2,
    dichotomy_check,
    frobenius_oracle_report,
    gluck_report,
    pab_exact,
    pab_frobenius,
    pair_count,
    product_set,
    pyber_report,
    square_growth_survey,
    sweep_2step,
    sweep_asymp,
    sweep_dichotomy,
    sweep_gowers2,
    word_growth_report,
)
from normgrowth.subsets import NormalSubset, Subset, random_subset


def brute_product(group, a, b):
    return {
        int(group.mul(int(x), int(y)))
        for x in a.indices
        for y in b.indices
    }


def class_of_size(ct, size):
    return int(np.flatnonzero(ct.sizes == size)[0])


def test_product_set_matches_brute_force(a5):
    g = a5.group
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = random_subset(g.n, rng)
        b = random_subset(g.n, rng)
        got = set(product_set(g, a, b).indices.tolist())
        assert got == brute_product(g, a, b)


def test_pair_count_matches_brute_force(a5):
    g = a5.group
    rng = np.random.default_rng(8)
    a = random_subset(g.n, rng)
    b = random_subset(g.n, rng)
    for target in (0, 1, 17, 59):
        brute = sum(
            1
            for x in a.indices
            for y in b.indices
            if int(g.mul(int(x), int(y))) == target
        )
        assert pair_count(g, a, b, target) == brute


def test_three_cycle_class_squares_to_everything(a5):
    k = class_of_size(a5.classes, 20)
    a = NormalSubset.from_classes(a5.classes, [k])
    assert product_set(a5.group, a, a).size == a5.group.n


def test_pab_exact_values(a5):
    g, ct = a5.group, a5.classes
    full = Subset.full(g.n)
    for target in (0, 5, 33):
        assert pab_exact(g, full, full, target) == Fraction(1, g.n)
    one = Subset.from_indices(g.n, [0])
    b = NormalSubset.from_classes(ct, [1, 2])
    for target in range(0, g.n, 7):
        want = Fraction(int(b.mask[target]), b.size)
        assert pab_exact(g, one, b, target) == want
    # 3-cycles are inverse-closed, so exactly |A| pairs hit the identity
    k20 = class_of_size(ct, 20)
    a = NormalSubset.from_classes(ct, [k20])
    assert pab_exact(g, a, a, 0) == Fraction(20, 400)


def test_pab_frobenius_matches_exact(a5):
    g, ct, tab = a5.group, a5.classes, a5.table
    full = NormalSubset.from_classes(ct, range(ct.n_classes))
    for k in range(ct.n_classes):
        assert pab_frobenius(tab, full, full, k) == pytest.approx(
            1 / g.n, abs=1e-10
        )
    # a 3-cycle times an involution is never the identity
    a = NormalSubset.from_classes(ct, [class_of_size(ct, 20)])
    b = NormalSubset.from_classes(ct, [class_of_size(ct, 15)])
    assert pab_frobenius(tab, a, b, 0) == pytest.approx(0.0, abs=1e-10)
    assert pair_count(g, a, b, 0) == 0


def test_2step_full_and_singleton_b(a5):
    g, ct, tab = a5.group, a5.classes, a5.table
    a = NormalSubset.from_classes(ct, [1])
    rec = check_2step(g, tab, a, Subset.full(g.n))
    assert rec.passed and rec.lhs == g.n
    rec = check_2step(g, tab, a, Subset.from_indices(g.n, [0]))
    assert rec.passed
    assert rec.lhs == a.size
    r_min, _ = r_extremes(tab, a)
    assert rec.rhs <= g.n / (1.0 + r_min * r_min * (g.n - 1.0)) + 1e-9


def test_gowers2_full_inputs_cover_every_class(a5):
    g, ct, tab = a5.group, a5.classes, a5.table
    full = NormalSubset.from_classes(ct, range(ct.n_classes))
    for k in range(1, ct.n_classes):
        rec = check_gowers2(g, tab, full, full, k)
        assert rec.passed and not rec.skipped
    with pytest.raises(ValueError):
        check_gowers2(g, tab, full, full, 0)


def test_gowers2_small_inputs_skip(a5):
    g, ct, tab = a5.group, a5.classes, a5.table
    tiny = NormalSubset.from_classes(ct, [0])
    k = class_of_size(ct, 12)
    rec = check_gowers2(g, tab, tiny, tiny, k)
    assert rec.skipped and rec.passed
    assert "precondition" in rec.note


def test_asymp_full_inputs(a5):
    ct, tab = a5.classes, a5.table
    full = NormalSubset.from_classes(ct, range(ct.n_classes))
    recs = check_asymp(tab, full, full)
    assert len(recs) == ct.n_classes
    for rec in recs:
        assert rec.passed
        assert rec.lhs == pytest.approx(0.0, abs=1e-15)


def test_dichotomy_branches(a5, psl27):
    # big A: the covering branch
    ct = psl27.classes
    big = NormalSubset.from_classes(ct, range(1, ct.n_classes))
    rec = dichotomy_check(psl27.group, psl27.table, big)
    assert rec.passed and "covering" in rec.note
    # small A: the growth branch
    k12 = class_of_size(a5.classes, 12)
    small = NormalSubset.from_classes(a5.classes, [k12])
    _, r_max = r_extremes(a5.table, range(1, a5.classes.n_classes))
    assert small.size < r_max * a5.group.n
    rec = dichotomy_check(a5.group, a5.table, small)
    assert rec.passed and "growth" in rec.note
    with pytest.raises(TrivialSubset):
        dichotomy_check(
            a5.group, a5.table, NormalSubset.from_classes(a5.classes, [0])
        )


def test_gluck_report(psl27, a5):
    rep = gluck_report(psl27.group, None, psl27.table)
    assert rep.fail_count == 0
    assert rep.meta["q"] == 7
    # R_max for this group is sqrt(2)/3
    assert rep.meta["r_max"] == pytest.approx(math.sqrt(2) / 3, abs=1e-8)
    with pytest.raises(NotLieType):
        gluck_report(a5.group, None, a5.table)
    with pytest.raises(NotLieType):
        gluck_report(psl27.group, 5, psl27.table)


def test_survey_counts(a5, psl27, s5):
    rep = square_growth_survey(a5.group, a5.classes, a5.table)
    assert rep.meta["union_count"] == 15
    assert rep.meta["covering_count"] == 13
    assert 0.5 < rep.meta["min_eps_non_covering"] < 0.6
    rep = square_growth_survey(psl27.group, psl27.classes, psl27.table)
    assert rep.meta["union_count"] == 31
    with pytest.raises(ValueError):
        square_growth_survey(s5.group, s5.classes, s5.table)


def test_pyber_census(a5):
    rep = pyber_report(a5.group, a5.classes, a5.table)
    assert rep.meta["threshold"] == pytest.approx(60 / math.log2(60))
    assert rep.meta["qualifying"] == len(rep.results) == 30
    assert rep.meta["square_covers"] == 26
    for rec in rep.results:
        assert rec.note == ("A^2 = G" if rec.lhs == rec.n else "A^2 != G")


def test_word_growth_squares(a5):
    rep = word_growth_report(a5.group, a5.classes, a5.table, "xx", "xx")
    # squares miss the involutions: 1 + 20 + 12 + 12
    assert rep.meta["image1_size"] == rep.meta["image2_size"] == 45
    assert rep.fail_count == 0
    assert len(rep.results) == a5.classes.n_classes - 1


def test_word_growth_identity_word(a5):
    # the word x covers the whole group, so every deviation is exactly zero
    rep = word_growth_report(a5.group, a5.classes, a5.table, "x", "x")
    assert rep.meta["image1_size"] == a5.group.n
    for rec in rep.results:
        assert rec.lhs == 0.0 and rec.passed


def test_frobenius_oracle_exhaustive(a5):
    rep = frobenius_oracle_report(a5.group, a5.classes, a5.table)
    assert len(rep.results) == 125
    assert rep.fail_count == 0


def test_frobenius_oracle_random(psl27):
    rep = frobenius_oracle_report(
        psl27.group, psl27.classes, psl27.table, triples=25, seed=1
    )
    assert len(rep.results) == 25
    assert rep.fail_count == 0


def test_product_monotone_and_normal(a5):
    g, ct = a5.group, a5.classes
    a = NormalSubset.from_classes(ct, [1])
    a_big = NormalSubset.from_classes(ct, [1, 2])
    b = NormalSubset.from_classes(ct, [3])
    small = product_set(g, a, b).mask
    big = product_set(g, a_big, b).mask
    assert (big | small == big).all()
    # a product of normal subsets is again conjugation invariant
    for cmap in g.generator_conjugation_maps():
        assert np.array_equal(small[cmap], small)


def test_sweeps_on_small_group(a5):
    g, ct, tab = a5.group, a5.classes, a5.table
    rep = sweep_2step(g, ct, tab, b_per_a=2, seed=0)
    assert len(rep.results) == 62
    assert rep.fail_count == 0
    rep = sweep_gowers2(g, ct, tab, unions=False)
    assert len(rep.results) == ct.n_classes * ct.n_classes * (ct.n_classes - 1)
    assert rep.fail_count == 0 and rep.skip_count > 0
    rep = sweep_asymp(g, ct, tab, pairs=3, seed=2)
    assert len(rep.results) == 3 * ct.n_classes
    assert rep.fail_count == 0
    rep = sweep_dichotomy(g, ct, tab)
    assert len(rep.results) == 30
    assert rep.fail_count == 0
    assert min(r.margin for r in rep.results if not r.skipped) > -1e-9
