import dataclasses
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from normgrowth.chartable import character_ratio, class_tensor, frobenius_tensor, r_extremes
from normgrowth import growth, spectral
from normgrowth.context import get_context
from normgrowth.distributions import sweep_bnp_star, sweep_bnp_two_step, sweep_wlambda
from normgrowth.errors import (
    ClassPartitionError,
    CountMismatch,
    NotLieType,
    NotSimple,
    TrivialSubset,
)
from normgrowth.growth import (
    class_pair_counts,
    dichotomy_check,
    frobenius_oracle_report,
    gluck_report,
    pair_count,
    product_set,
    product_sizes,
    pyber_report,
    square_growth_survey,
    sweep_2step,
    sweep_asymp,
    sweep_dichotomy,
    sweep_gowers2,
    word_growth_report,
)
from normgrowth.permgroup import FiniteGroup, certify_classes
from normgrowth.subsets import (
    NormalSubset,
    Subset,
    enumerate_normal_subsets,
    random_normal_subset,
    random_subset,
    union_rows,
)
from normgrowth.reports import CheckResult, ReportDocument


def brute_product(group, a, b):
    return {
        int(group.mul(int(x), int(y)))
        for x in a.indices
        for y in b.indices
    }


def class_of_size(ct, size):
    return int(np.flatnonzero(ct.sizes == size)[0])


def grid(u):
    """The `where` of every pair of u rows, A-major."""
    return np.indices((u, u)).reshape(2, -1).T


def one_pair(ct, a, b):
    """`class_pair_counts` of the one pair (A, B), as rows 0 and 1."""
    return class_pair_counts(ct, np.stack([a.indicator, b.indicator]), np.array([[0, 1]]))


def union_pool(ct, seed=0):
    """The union pool of the sweeps, as rows and as the `NormalSubset`s of those rows."""
    rows = growth._union_pool(ct, include_identity_class=True, seed=seed)
    return rows, [NormalSubset.from_classes(ct, np.flatnonzero(r)) for r in rows]


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
    # an array of targets: one count per target, in the targets' shape
    targets = np.array([[0, 1], [17, 59]])
    counts = pair_count(g, a, b, targets)
    assert counts.shape == (2, 2)
    assert counts.tolist() == [[pair_count(g, a, b, int(t)) for t in row] for row in targets]
    empty = Subset(np.zeros(g.n, dtype=bool))
    assert pair_count(g, empty, b, targets).tolist() == [[0, 0], [0, 0]]


def test_three_cycle_class_squares_to_everything(a5):
    k = class_of_size(a5.classes, 20)
    a = NormalSubset.from_classes(a5.classes, [k])
    assert product_set(a5.group, a, a).size == a5.group.n


def pab_exact(group, a, b, g):
    """P_{A,B}(g) = pair_count / (|A| |B|) as an exact rational."""
    return Fraction(pair_count(group, a, b, g), a.size * b.size)


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


def pab_from_tensor(tab, a, b, k):
    """P_{A,B}(rep_k) from the character-formula class constants."""
    formula = frobenius_tensor(tab).real
    pairs = formula[np.ix_(a.class_indices, b.class_indices, [k])].sum()
    return float(pairs) / (a.size * b.size)


def test_pab_frobenius_matches_exact(a5):
    g, ct, tab = a5.group, a5.classes, a5.table
    full = NormalSubset.from_classes(ct, range(ct.n_classes))
    for k in range(ct.n_classes):
        assert pab_from_tensor(tab, full, full, k) == pytest.approx(
            1 / g.n, abs=1e-10
        )
        assert pab_from_tensor(tab, full, full, k) == pytest.approx(
            float(pab_exact(g, full, full, int(ct.reps[k]))), abs=1e-10
        )
    # a 3-cycle times an involution is never the identity
    a = NormalSubset.from_classes(ct, [class_of_size(ct, 20)])
    b = NormalSubset.from_classes(ct, [class_of_size(ct, 15)])
    assert pab_from_tensor(tab, a, b, 0) == pytest.approx(0.0, abs=1e-10)
    assert pair_count(g, a, b, 0) == 0


def test_2step_full_and_singleton_b(a5):
    g, ct, tab = a5.group, a5.classes, a5.table
    a = NormalSubset.from_classes(ct, [1])
    r_min, _ = r_extremes(tab, a)

    def record(b):
        ab = product_set(g, a, b).size
        columns = (np.array([x]) for x in (r_min, b.size, ab))
        return growth._2step_block(a5, *columns, [""]).row(0)

    rec = record(Subset.full(g.n))
    assert rec.passed and rec.lhs == g.n
    rec = record(Subset.from_indices(g.n, [0]))
    assert rec.passed
    assert rec.lhs == a.size
    assert rec.rhs <= g.n / (1.0 + r_min * r_min * (g.n - 1.0)) + 1e-9


def _2step_reference(n, r_min, b_size, ab, tol):
    """The 2step record's rhs and margin, one at a time, with the R = 0 branch spelled out."""
    bound = n / (1.0 + r_min * r_min * (n / b_size - 1.0))
    weak = min(n / 2.0, b_size / (2.0 * r_min * r_min)) if r_min > 0 else n / 2.0
    rhs = max(bound, weak)
    return rhs, float(ab) - (rhs - tol.slack)


def test_2step_block_needs_no_branch_at_a_zero_ratio(a5):
    """R = 0 makes |B| / (2R^2) infinite, and the minimum with n/2 is the weak bound n/2.

    The other rows keep the bits of the scalar record.
    """
    r_min = np.array([0.0, 0.01, 0.25, 0.5, 1.0])
    b_size = np.array([1, 7, 30, 59, 60])
    ab = np.array([30, 31, 45, 60, 60])
    block = growth._2step_block(a5, r_min, b_size, ab, ["r"] * 5)
    for i, (r, b, x) in enumerate(zip(r_min.tolist(), b_size.tolist(), ab.tolist())):
        rhs, margin = _2step_reference(60, r, b, x, a5.tol)
        row = block.row(i)
        assert (row.lhs, row.rhs, row.margin, row.passed) == (float(x), rhs, margin, margin >= 0)
    assert block.rhs[0] == 60.0


def gowers2_records(ctx, a, b):
    counts = one_pair(ctx.classes, a, b)
    ratios = growth._class_ratios(ctx.table)
    prefixes, suffixes = [f"A={a.expr()};B={b.expr()};k="], [str(c) for c in range(1, len(ratios))]
    block = growth._gowers2_block(ctx, ratios, np.array([a.size * b.size]), counts, (prefixes, suffixes))
    return list(block.rows())


def test_gowers2_full_inputs_cover_every_class(a5):
    ct = a5.classes
    full = NormalSubset.from_classes(ct, range(ct.n_classes))
    recs = gowers2_records(a5, full, full)
    # one record per nonidentity class, none for the identity
    assert [r.inputs.rpartition("k=")[2] for r in recs] == [
        str(k) for k in range(1, ct.n_classes)
    ]
    for rec in recs:
        assert rec.passed and not rec.skipped


def test_gowers2_small_inputs_skip(a5):
    tiny = NormalSubset.from_classes(a5.classes, [0])
    k = class_of_size(a5.classes, 12)
    rec = gowers2_records(a5, tiny, tiny)[k - 1]
    assert rec.inputs.endswith(f"k={k}")
    assert rec.skipped and rec.passed
    assert "precondition" in rec.note


def test_asymp_full_inputs(a5):
    ct, tab = a5.classes, a5.table
    full = NormalSubset.from_classes(ct, range(ct.n_classes))
    counts = one_pair(ct, full, full)
    suffixes = [str(k) for k in range(ct.n_classes)]
    ab = np.array([full.size**2])
    block = growth._asymp_block(a5, growth._class_ratios(tab), ab, counts, (["k="], suffixes))
    recs = list(block.rows())
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
    rep = gluck_report(psl27)
    assert rep.tally().failed == 0
    assert rep.meta["q"] == 7
    # R_max for this group is sqrt(2)/3
    assert rep.meta["r_max"] == pytest.approx(math.sqrt(2) / 3, abs=1e-8)
    with pytest.raises(NotLieType):
        gluck_report(a5)


def test_survey_counts(a5, psl27, s5):
    rep = square_growth_survey(a5)
    assert rep.meta["union_count"] == 15
    assert rep.meta["covering_count"] == 13
    assert 0.5 < rep.meta["min_eps_non_covering"] < 0.6
    rep = square_growth_survey(psl27)
    assert rep.meta["union_count"] == 31
    with pytest.raises(NotSimple):
        square_growth_survey(s5)


def test_union_pools_hold_each_union_once():
    """A pool of at most RANDOM_UNION_SAMPLES unions is all of them; past that, as many distinct.

    A:8 has 14 classes, so 16 383 unions with the identity class: the pool
    draws 10 000 distinct ones, the same for the same seed, and starts with
    the unions that draws with repeats give, in the order of their first
    draw.  Without the identity class there are 8 191 unions, all of them
    enumerated, and `survey` writes one record each.
    """
    ctx = get_context("A:8")
    ct = ctx.classes
    pools = {}
    for seed in (0, 3):
        rows = growth._union_pool(ct, include_identity_class=True, seed=seed)
        assert rows.dtype == bool and rows.shape == (growth.RANDOM_UNION_SAMPLES, ct.n_classes)
        pool = [tuple(np.flatnonzero(r).tolist()) for r in rows]
        assert len(pool) == len(set(pool)) == growth.RANDOM_UNION_SAMPLES
        assert np.array_equal(growth._union_pool(ct, True, seed), rows)
        rng = np.random.default_rng(seed)
        repeating = [random_normal_subset(ct, rng).class_indices for _ in range(growth.RANDOM_UNION_SAMPLES)]
        first = list(dict.fromkeys(repeating))
        assert len(first) < len(repeating) and pool[: len(first)] == first
        pools[seed] = pool
    assert pools[0] != pools[3]
    unions = growth._union_pool(ct, include_identity_class=False, seed=0)
    assert np.array_equal(unions, union_rows(ct, False))
    assert len(unions) == 2 ** (ct.n_classes - 1) - 1 == 8191
    rep = square_growth_survey(ctx)
    assert len(rep.results) == rep.meta["union_count"] == 8191


def test_pyber_census(a5):
    rep = pyber_report(a5)
    assert rep.meta["threshold"] == pytest.approx(60 / math.log2(60))
    assert rep.meta["qualifying"] == len(rep.results) == 30
    assert rep.meta["square_covers"] == 26
    for rec in rep.results:
        assert rec.note == ("A^2 = G" if rec.lhs == rec.n else "A^2 != G")


def test_word_growth_squares(a5):
    rep = word_growth_report(a5, "xx", "xx")
    # squares miss the involutions: 1 + 20 + 12 + 12
    assert rep.meta["image1_size"] == rep.meta["image2_size"] == 45
    assert rep.tally().failed == 0
    assert len(rep.results) == a5.classes.n_classes - 1


def test_word_growth_identity_word(a5):
    # the word x covers the whole group, so every deviation is exactly zero
    rep = word_growth_report(a5, "x", "x")
    assert rep.meta["image1_size"] == a5.group.n
    for rec in rep.results:
        assert rec.lhs == 0.0 and rec.passed


def test_frobenius_oracle_exhaustive(a5):
    rep = frobenius_oracle_report(a5)
    assert len(rep.results) == 125
    assert rep.tally().failed == 0


def _counting_pair_count(monkeypatch):
    """Patch `growth.pair_count` to log its target shapes; return the log."""
    calls = []
    inner = growth.pair_count

    def counted(group, a, b, g):
        calls.append(np.shape(g))
        return inner(group, a, b, g)

    monkeypatch.setattr(growth, "pair_count", counted)
    return calls


def test_recounts_take_one_pair_count_per_pair(a5, monkeypatch):
    """Every representative is counted by one call, not one call per class."""
    ct = a5.classes
    k = ct.n_classes
    calls = _counting_pair_count(monkeypatch)
    rep = frobenius_oracle_report(a5)
    assert calls == [(k,)] * (k * k)
    assert [r.inputs for r in rep.results] == [
        f"i={i};j={j};k={c}" for i in range(k) for j in range(k) for c in range(k)
    ]
    del calls[:]
    growth._squares_met(ct, union_rows(ct))
    assert calls == [(k,)] * spectral.BRUTE_FORCE_SAMPLE


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
    ct = a5.classes
    rep = sweep_2step(a5, trials=2, seed=0)
    assert len(rep.results) == 62
    assert rep.tally().failed == 0
    rep = sweep_gowers2(a5, unions=False)
    assert len(rep.results) == ct.n_classes * ct.n_classes * (ct.n_classes - 1)
    tally = rep.tally()
    assert tally.failed == 0 and tally.skipped > 0
    rep = sweep_asymp(a5, trials=3, seed=2)
    assert len(rep.results) == 3 * ct.n_classes
    assert rep.tally().failed == 0
    rep = sweep_dichotomy(a5)
    assert len(rep.results) == 30
    assert rep.tally().failed == 0
    assert min(r.margin for r in rep.results if not r.skipped) >= 0


def brute_counts(group, ct, a, b):
    return [pair_count(group, a, b, int(g)) for g in ct.reps]


def test_class_pair_counts_every_union_pair(a5, monkeypatch):
    g, ct = a5.group, a5.classes
    pool = enumerate_normal_subsets(ct)
    rows, where = union_rows(ct), grid(len(pool))
    counts = class_pair_counts(ct, rows, where)
    assert counts.dtype == np.int64 and counts.shape == (31 * 31, ct.n_classes)
    for (i, j), row in zip(where.tolist(), counts):
        assert row.tolist() == brute_counts(g, ct, pool[i], pool[j])
    # blocks of 1 and of 18 pairs give the same counts as one block
    for chunk in (1, 3 * ct.n_classes * len(pool)):
        monkeypatch.setattr(growth, "_CHUNK_ROWS", chunk)
        assert np.array_equal(class_pair_counts(ct, rows, where), counts)


@pytest.mark.parametrize("spec", ["PSL2:7", "PSL2:11", "PSL3:2"])
def test_class_pair_counts_random_unions(spec):
    ctx = get_context(spec)
    g, ct = ctx.group, ctx.classes
    rng = np.random.default_rng(11)
    drawn = [random_normal_subset(ct, rng) for _ in range(100)]
    where = np.arange(100).reshape(-1, 2)
    rows = np.stack([a.indicator for a in drawn])
    for (i, j), row in zip(where.tolist(), class_pair_counts(ct, rows, where)):
        assert row.tolist() == brute_counts(g, ct, drawn[i], drawn[j])


def test_class_pair_counts_reuse_rows(psl27):
    """A row paired with itself, and rows that recur in `where`, in any order."""
    g, ct = psl27.group, psl27.classes
    sets = [NormalSubset.from_classes(ct, c) for c in ([1], [0, 2], [3, 4, 5])]
    rows = np.stack([s.indicator for s in sets])
    assert rows.tolist() == [[c in s.class_indices for c in range(ct.n_classes)] for s in sets]
    where = np.array([[0, 0], [1, 1], [0, 1], [1, 0], [2, 2], [0, 0], [2, 0], [2, 0], [1, 2]])
    counts = class_pair_counts(ct, rows, where)
    for (i, j), row in zip(where.tolist(), counts):
        assert row.tolist() == brute_counts(g, ct, sets[i], sets[j])
    assert np.array_equal(counts[0], counts[5]) and np.array_equal(counts[6], counts[7])
    # one row alone, against itself
    (alone,) = class_pair_counts(ct, rows[2:], np.array([[0, 0]]))
    assert alone.tolist() == brute_counts(g, ct, sets[2], sets[2])


def test_class_pair_counts_square_sizes(psl27):
    g, ct = psl27.group, psl27.classes
    pool = enumerate_normal_subsets(ct)
    for a, a2 in zip(pool, growth._squares_met(ct, union_rows(ct))):
        assert int(ct.sizes[a2].sum()) == product_set(g, a, a).size


def test_class_pair_counts_of_no_pairs(a5):
    """A `where` of shape (0, 2), on no rows and on a pool's rows."""
    ct = a5.classes
    for rows in (np.zeros((0, ct.n_classes), dtype=bool), union_rows(ct)):
        counts = class_pair_counts(ct, rows, np.empty((0, 2), dtype=np.intp))
        assert counts.dtype == np.int64 and counts.shape == (0, ct.n_classes)


def body_sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc.body_dict(), sort_keys=True).encode()).hexdigest()


def test_union_sweeps_draw_seeded_pairs_past_the_pair_cap(a5, monkeypatch):
    """Past PAIR_CAP pairs a pool x pool sweep draws exactly PAIR_CAP distinct pairs.

    A:5 has 31 unions, so 961 pairs against a cap set to 100.  The pairs
    are drawn with the seed of the pool (0 for gowers2, the sweep's seed for
    asymp), run in pool order, and are counted as the scalar references
    count them; meta states the cap only when it is hit.
    """
    g, ct, k = a5.group, a5.classes, a5.classes.n_classes
    assert sweep_gowers2(a5).meta == {} and sweep_asymp(a5, seed=3).meta == {}
    monkeypatch.setattr(growth, "PAIR_CAP", 100)
    pool = {a.expr(): a for a in union_pool(ct)[1]}
    order = list(pool)
    ratios = growth._class_ratios(a5.table)
    drawn = {}
    for name, sweep, width in [
        ("gowers2", lambda: sweep_gowers2(a5), k - 1),
        ("asymp-0", lambda: sweep_asymp(a5, seed=0), k),
        ("asymp-3", lambda: sweep_asymp(a5, seed=3), k),
    ]:
        rep = sweep()
        assert rep.meta == {"pair_cap": 100, "pool_pairs": 961}
        assert len(rep.results) == 100 * width
        assert body_sha256(sweep()) == body_sha256(rep)
        heads = [r.inputs.rpartition(";k=")[0] for r in list(rep.results)[::width]]
        pairs = [tuple(pool[h.split(";")[i][2:]] for i in (0, 1)) for h in heads]
        at = [order.index(a.expr()) * 31 + order.index(b.expr()) for a, b in pairs]
        assert at == sorted(set(at)) and len(at) == 100
        drawn[name] = at
        want = []
        for a, b in pairs:
            row = np.array(brute_counts(g, ct, a, b))
            if name == "gowers2":
                want += _gowers2_reference(g, ratios, a, b, row)
            else:
                want += _asymp_reference(ratios, a, b, row, a5.tol)
        _assert_same_records(rep, want)
    assert drawn["gowers2"] == drawn["asymp-0"] != drawn["asymp-3"]


# sha256 of the seed-0 report bodies of the reports counted by
# `class_pair_counts`, as its grid, per-pair and recount-by-hand callers gave them
TENSOR_BODIES = {
    ("A:5", "asymp"): "bdbe23a4022a177a8c75004fe9241b6b03132754dc2bb0a1b5b99942193c3581",
    ("A:5", "asymp-pairs20"): "17db11282e8b21b9a035c6dc674556d76b55440fb0d119f7b03376e94654b39f",
    ("A:5", "gowers2-unions"): "5b17956da264a8a7961fdd2ba134317ef94e07207f6027eac4856d429051d017",
    ("A:5", "gowers2-classes"): "654076d681733982a584690e4179313db02e44e645f155eed094d44fbf58e865",
    ("A:5", "dichotomy"): "8642d798d4532f17e1f638df967031190060eb7d04b3d4e024bafd5059eecdbb",
    ("A:5", "survey"): "0ead13f31aa1ae7d4ac8a75f11087d2ebafff0382655c3e80bc219cc994d12b6",
    ("A:5", "pyber"): "3edbffd12f7435755415b36b9023fc17d2b94d194ec8d20359c51dd46760df1c",
    ("A:5", "words"): "8dd952d3d2762ac4980be6b7f132e3c04c57ac6f266e3c97895b0cc6997d1fc9",
    ("PSL2:7", "asymp"): "c903ef4c9209f1f41ef2df36285e7b840bc4408b16a54c211748451c41f1fd21",
    ("PSL2:7", "asymp-pairs20"): "8824c025dee1e15d149bfdf574c6087a12345f1096877394d9192a2564628255",
    ("PSL2:7", "gowers2-unions"): "7a0630c4de3a6003bd43a1d51d1f1bf4cf22fae878f3e5b540cf83ea38bec899",
    ("PSL2:7", "gowers2-classes"): "6eab33474a8cda560bec2825e81ceec97537b7f5bcabc436d3d605bf35c1c846",
    ("PSL2:7", "dichotomy"): "de23fd66070f394095295da91bbc75bdaa2d6c0e5af5a61e92216b8f525ac67b",
    ("PSL2:7", "survey"): "4af3ad284019b442f51c1b895786219e02699f438b7f364678935ac2c31e019d",
    ("PSL2:7", "pyber"): "aa86f9c8dd473b2466f5f87b7c2c97c82c7cd0f9221aa870489cf830518b4aab",
    ("PSL2:7", "words"): "a1a699e1e5fd239632ee89112c662a9fb8ccb279b8aebe20cb4d24fa32f57a67",
}
TENSOR_REPORTS = {
    "asymp": lambda ctx: sweep_asymp(ctx),
    "asymp-pairs20": lambda ctx: sweep_asymp(ctx, trials=20, seed=0),
    "gowers2-unions": lambda ctx: sweep_gowers2(ctx, unions=True),
    "gowers2-classes": lambda ctx: sweep_gowers2(ctx, unions=False),
    "dichotomy": lambda ctx: sweep_dichotomy(ctx),
    "survey": lambda ctx: square_growth_survey(ctx),
    "pyber": lambda ctx: pyber_report(ctx),
    "words": lambda ctx: word_growth_report(ctx, "xx", "xyXY"),
}


@pytest.mark.parametrize(
    "spec,report", sorted(TENSOR_BODIES), ids=[f"{s}-{r}" for s, r in sorted(TENSOR_BODIES)]
)
def test_tensor_routed_bodies_are_pinned(spec, report):
    doc = TENSOR_REPORTS[report](get_context(spec))
    assert body_sha256(doc) == TENSOR_BODIES[spec, report]


# sha256 of the seed-0 report bodies of A:8, whose 14 classes give 16 383
# unions with the identity class: dichotomy and pyber sweep the 10 000 distinct
# unions drawn with seed 0, survey enumerates the 8 191 without it
DRAWN_POOL_BODIES = {
    "dichotomy": "78392c07687a66797016c4f175de7c32220eaa2fab39377b47d84a913c563c91",
    "pyber": "40a672aa6097834e88eec24f3a4dfd4433454569b457d0a8632ed075c7fca923",
    "survey": "f77322a16b81b953ef10b9b04f95159b4ad648c9559ebaa04efb39aedef3d050",
}


@pytest.mark.parametrize("report", sorted(DRAWN_POOL_BODIES))
def test_drawn_pool_bodies_are_pinned(report):
    doc = TENSOR_REPORTS[report](get_context("A:8"))
    assert body_sha256(doc) == DRAWN_POOL_BODIES[report]


@pytest.mark.parametrize("spec", ["A:5", "PSL2:7"])
def test_dichotomy_check_is_the_sweep_record(spec):
    """`dichotomy_check` on one union gives the record the sweep writes for it."""
    ctx = get_context(spec)
    _, pool = union_pool(ctx.classes)
    pool = [a for a in pool if not a.is_trivial()]
    rep = sweep_dichotomy(ctx)
    assert len(rep.results) == len(pool)
    for a, row in zip(pool, rep.results):
        assert dichotomy_check(ctx.group, ctx.table, a, ctx.tol) == row
        assert row.inputs == f"A={a.expr()}"


def test_dichotomy_on_a_one_class_group_writes_no_record():
    """A:2 has no nontrivial union, so the sweep writes nothing and takes no ratio."""
    rep = sweep_dichotomy(get_context("A:2"))
    assert len(rep.results) == 0 and rep.body_dict()["results"] == []


# sha256 of the seed-0 report bodies of the checks that do not count on the
# class tensor.  The sweeps run their default trial counts, except "2step-cap59";
# "-cap59" sets the dense cap below n, so `product_sizes` counts with
# `product_set` and the sample is recounted with `convolve_rows`.  A:5 has no
# defining field, so gluck runs on PSL2:5, which is isomorphic to it.
CHECK_BODIES = {
    ("A:5", "2step"): "f0bc5b33a5976b076f201df58537e981d8ebc07954ebb026a6b8aef56b24b5f3",
    ("A:5", "2step-cap59"): "a076ce725824cc5e1ac873d01a8d51de59b425e92c16901a3ba4730f5ad6a2a9",
    ("A:5", "bnp"): "647d0f60a532d55c967a767ac48222b6e34cb142ed3812b9c7b8fb911b1243e4",
    ("A:5", "bnp2step"): "62c971f69b07f84090384352d5a93dd738ad846bb31f3be56b43df5a6c9ef89d",
    ("A:5", "bnp2step-cap59"): "62c971f69b07f84090384352d5a93dd738ad846bb31f3be56b43df5a6c9ef89d",
    ("A:5", "wlambda"): "d9bb75983c1d91dbd9a857cfc96e7f8519f73eee8e288880bc62f806b7671a3f",
    ("A:5", "frobenius-oracle"): "2f71741b433669beda7564e496b8dc6d295975b9f3d630a5715a6d09b32b2f41",
    ("PSL2:5", "gluck"): "3ee4a155fd4b073ed3a0ed8b8b7e46ba0bd56d88d8b2f64f6dd29c6c8df35a77",
    ("PSL2:7", "2step"): "77b0b71ba17157ae23d8e5bb614e34406ecb12551bd5a7384d647bfc17a019b5",
    ("PSL2:7", "2step-cap59"): "1b1de60f5b84a06ec3245cb274f739a069ffe066e3e1b2d5a4a77b50703b2384",
    ("PSL2:7", "bnp"): "6345c904e1b52f96cfb8dac39743c198d7889d58349e93fe059715720ec1bac4",
    ("PSL2:7", "bnp2step"): "aa62618e23dd6bbfd3bdfac04b8764c6c16f44d19beda618cb87656eeabd8f78",
    ("PSL2:7", "bnp2step-cap59"): "aa62618e23dd6bbfd3bdfac04b8764c6c16f44d19beda618cb87656eeabd8f78",
    ("PSL2:7", "wlambda"): "b44fa1911eb09ae05f107df292a2617e842e3355b032caff670e0180b162b03e",
    ("PSL2:7", "gluck"): "c97302ef7d78a2b8429ecc4228920144fc1dccff7b31a99ee78bc67b4f28ef08",
    ("PSL2:7", "frobenius-oracle"): "24b6728283cd90177d56ad41ba773a7ce087197b6d79cb034524801f0d9ccca3",
}
CHECK_REPORTS = {
    "2step": lambda ctx: sweep_2step(ctx),
    "2step-cap59": lambda ctx: sweep_2step(ctx, trials=10),
    "bnp": lambda ctx: sweep_bnp_star(ctx),
    "bnp2step": lambda ctx: sweep_bnp_two_step(ctx),
    "bnp2step-cap59": lambda ctx: sweep_bnp_two_step(ctx),
    "wlambda": lambda ctx: sweep_wlambda(ctx),
    "gluck": lambda ctx: gluck_report(ctx),
    "frobenius-oracle": lambda ctx: frobenius_oracle_report(ctx),
}


@pytest.mark.parametrize(
    "spec,report", sorted(CHECK_BODIES), ids=[f"{s}-{r}" for s, r in sorted(CHECK_BODIES)]
)
def test_check_bodies_are_pinned(spec, report, monkeypatch):
    if report.endswith("-cap59"):
        monkeypatch.setattr(spectral, "DENSE_CAP", 59)
    doc = CHECK_REPORTS[report](get_context(spec))
    assert body_sha256(doc) == CHECK_BODIES[spec, report]


def test_recount_catches_a_raised_count(a5):
    """A positive tensor entry raised by one must be caught.

    1*1 = 1 is the one product in C_0 x C_0, so a[0, 0, 0] = 2 keeps every
    product set and changes the identity's count of every pair whose A and
    B hold the identity; each call's sample holds such a pair.
    """
    bad = class_tensor(a5.classes).copy()
    assert bad[0, 0, 0] == 1
    bad[0, 0, 0] += 1
    ct = dataclasses.replace(a5.classes, tensor=bad)
    ctx = dataclasses.replace(a5, classes=ct)
    one = NormalSubset.from_classes(ct, [0])
    with pytest.raises(CountMismatch):
        one_pair(ct, one, one)
    with pytest.raises(CountMismatch):
        sweep_gowers2(ctx, unions=False)
    with pytest.raises(CountMismatch):
        sweep_dichotomy(ctx)


def test_brute_force_sample_catches_a_wrong_tensor(a5):
    """One wrong tensor entry on a copy of the class table must be caught.

    C_1 C_1 misses the class of involutions in A:5, so a count of 1 there
    changes both the pair counts and the product set of (C_1, C_1), which
    every sweep's brute-force sample holds.
    """
    k15 = class_of_size(a5.classes, 15)
    bad = class_tensor(a5.classes).copy()
    assert a5.classes.sizes[1] == 12 and bad[1, 1, k15] == 0
    bad[1, 1, k15] += 1
    ctx = dataclasses.replace(a5, classes=dataclasses.replace(a5.classes, tensor=bad))
    with pytest.raises(CountMismatch):
        sweep_asymp(ctx)
    with pytest.raises(CountMismatch):
        sweep_gowers2(ctx, unions=False)
    with pytest.raises(CountMismatch):
        sweep_dichotomy(ctx)
    # the context's own table keeps its own tensor
    assert sweep_dichotomy(a5).tally().failed == 0


def test_classes_met_alone_catch_the_missing_involutions(a5, monkeypatch):
    """The wrong tensor of the test above, with `pair_count` made to agree with it.

    Only the classes met by r_1 * C_1, which miss the involutions, are left
    to catch it.
    """
    k15 = class_of_size(a5.classes, 15)
    bad = class_tensor(a5.classes).copy()
    bad[1, 1, k15] += 1
    ct = dataclasses.replace(a5.classes, tensor=bad)
    c1 = NormalSubset.from_classes(ct, [1])
    assert not growth._classes_met(ct, c1, c1)[k15]
    monkeypatch.setattr(growth, "pair_count", lambda group, a, b, g: bad[1, 1])
    with pytest.raises(CountMismatch):
        one_pair(ct, c1, c1)


def with_blocks(ct, class_of):
    """A copy of ct whose blocks are given by `class_of`, each with its smallest element as rep."""
    classes = tuple(np.flatnonzero(class_of == c) for c in range(class_of.max() + 1))
    return dataclasses.replace(
        ct,
        class_of=class_of,
        classes=classes,
        sizes=np.array([c.size for c in classes]),
        reps=np.array([c[0] for c in classes]),
        tensor=None,
    )


@pytest.mark.parametrize("change", ["merge", "split", "relabel"])
def test_wrong_partition_raises_before_any_count(a5, change):
    """Two classes of 5-cycles merged, or the 3-cycles split in two, must not be counted.

    The merged block is closed under conjugation but twice the size of its
    representative's class; the split blocks are not closed.  A merge in
    `class_of` alone leaves it at odds with the classes, sizes and reps.
    """
    ct = a5.classes
    fives = np.flatnonzero(ct.rep_orders == 5)
    assert fives.size == 2
    class_of = ct.class_of.copy()
    if change == "split":
        threes = ct.classes[class_of_size(ct, 20)]
        class_of[threes[10:]] = ct.n_classes
    else:
        lo, hi = fives.tolist()
        class_of[class_of == hi] = lo
        class_of[class_of > hi] -= 1
    if change == "relabel":
        bad = dataclasses.replace(ct, class_of=class_of, tensor=None)
    else:
        bad = with_blocks(ct, class_of)
    assert bad.centralizer_orders is None
    with pytest.raises(ClassPartitionError):
        growth._squares_met(bad, np.eye(bad.n_classes, dtype=bool))
    with pytest.raises(ClassPartitionError):
        class_pair_counts(bad, np.zeros((0, bad.n_classes), dtype=bool), np.empty((0, 2), dtype=np.intp))
    assert bad.tensor is None


def test_partition_is_certified_once_per_table(a5, monkeypatch):
    calls = []
    count = FiniteGroup.centralizer_orders

    def counting(self, elements):
        calls.append(len(elements))
        return count(self, elements)

    monkeypatch.setattr(FiniteGroup, "centralizer_orders", counting)
    # a replaced copy starts uncertified, even of a certified table
    certify_classes(a5.classes)
    ct = dataclasses.replace(a5.classes)
    assert ct.centralizer_orders is None
    rows = union_rows(ct)
    first = growth._squares_met(ct, rows)
    assert calls == [ct.n_classes]
    assert np.array_equal(ct.centralizer_orders, a5.group.n // ct.sizes)
    assert np.array_equal(growth._squares_met(ct, rows), first)
    assert calls == [ct.n_classes]


@pytest.mark.parametrize("spec", ["A:5", "PSL2:7", "PSL2:11", "PSL3:3"])
def test_classes_met_by_representatives_match_the_product_set(spec):
    """The classes met by r_i*B are the classes of A*B, on single classes and unions."""
    ctx = get_context(spec)
    g, ct = ctx.group, ctx.classes
    singles = [NormalSubset.from_classes(ct, [i]) for i in range(ct.n_classes)]
    rng = np.random.default_rng(26)
    pairs = [(a, b) for a in singles for b in singles] + [
        (random_normal_subset(ct, rng), random_normal_subset(ct, rng)) for _ in range(20)
    ]
    for a, b in pairs:
        want = np.zeros(ct.n_classes, dtype=bool)
        want[ct.class_of[product_set(g, a, b).mask]] = True
        assert np.array_equal(growth._classes_met(ct, a, b), want)


def test_recount_products_stay_within_budget(monkeypatch):
    """The recount of A^2 makes |classes of A| |A| + |A| k products, not |A|^2.

    `pair_count` makes |A| k of them, at the k representatives, and
    `_classes_met` one per element of A for each class of A.
    """
    ctx = get_context("PSL3:3")
    ct = ctx.classes
    k = ct.n_classes
    class_tensor(ct)
    certify_classes(ct)
    made = []
    mul = FiniteGroup.mul

    def counting(self, a, b):
        made.append(np.broadcast(np.asarray(a), np.asarray(b)).size)
        return mul(self, a, b)

    monkeypatch.setattr(FiniteGroup, "mul", counting)
    for c in range(1, k):
        a = NormalSubset.from_classes(ct, [c])
        del made[:]
        one_pair(ct, a, a)
        assert 0 < sum(made) <= len(a.class_indices) * a.size + a.size * k


@pytest.mark.parametrize("cap", [None, 59])
def test_2step_sweep_counts_every_product(a5, cap, monkeypatch):
    """Each record's |AB| is the size of A*B, drawn in the sweep's rng order.

    With the dense cap below n, `product_sizes` takes its product-set route.
    """
    g, ct = a5.group, a5.classes
    if cap is not None:
        monkeypatch.setattr(spectral, "DENSE_CAP", cap)
    rep = sweep_2step(a5, trials=3, seed=5)
    rng = np.random.default_rng(5)
    want = [
        product_set(g, a, random_subset(g.n, rng)).size
        for a in enumerate_normal_subsets(ct)
        for _ in range(3)
    ]
    assert [r.lhs for r in rep.results] == want


# tracemalloc peak of PSL2:13's 2step sweep at 20 trials, in MB.  Its 511
# unions x 20 B masks are 11.2 MB of bool.  Keeping every pair held them on
# top of one union's walk matrix (9.5 MB) and the record columns, 23 MB in
# all; keeping the sampled pairs alone peaks at about 10 MB
TWO_STEP_PEAK_MB = 16


def test_2step_sweep_keeps_only_the_sampled_pairs(monkeypatch):
    ctx = get_context("PSL2:13")
    ctx.group.division_table()
    sampled = []
    inner = growth._recounted_sizes
    monkeypatch.setattr(
        growth, "_recounted_sizes", lambda g, sample, sizes: sampled.append(list(sample)) or inner(g, sample, sizes)
    )
    tracemalloc.start()
    try:
        rep = sweep_2step(ctx, trials=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sampled == [spectral._spread(len(rep.results))]
    assert peak <= TWO_STEP_PEAK_MB * 2**20


@pytest.mark.parametrize("cap", [None, 59])
def test_product_sizes_put_the_fixed_set_on_the_left(a5, cap, monkeypatch):
    """|F R| per row on both routes, for small sets where |F R| and |R F| differ."""
    g = a5.group
    if cap is not None:
        monkeypatch.setattr(spectral, "DENSE_CAP", cap)
    rng = np.random.default_rng(3)
    fixed = Subset.from_indices(g.n, rng.choice(g.n, 4, replace=False))
    rows = np.zeros((12, g.n), dtype=bool)
    for r in rows:
        r[rng.choice(g.n, 3, replace=False)] = True
    left = [product_set(g, fixed, r).size for r in rows]
    assert left != [product_set(g, r, fixed).size for r in rows]
    assert product_sizes(g, fixed, rows).tolist() == left
    assert product_sizes(g, fixed, rows[0]) == left[0]


def test_brute_force_sample_catches_a_wrong_kernel(a5, psl27, monkeypatch):
    """A kernel that loses one entry of its first row must be caught.

    The first record of every sweep is in its sample, and losing the largest
    count of the first row drops one element from that record's product set.
    """
    bad = growth.convolve_rows
    monkeypatch.setattr(growth, "convolve_rows", lambda *args: _zero_first_max(bad(*args)))
    for ctx in (a5, psl27):
        with pytest.raises(CountMismatch):
            sweep_2step(ctx, trials=4, seed=0)
        with pytest.raises(CountMismatch):
            sweep_bnp_two_step(ctx, trials=10, seed=0)


def _zero_first_max(out):
    """A miscount: the largest entry of the first row set to 0."""
    first = out.reshape(-1, out.shape[-1])[0]
    first[np.argmax(first)] = 0
    return out


def test_recount_above_the_cap_takes_the_other_route(a5, monkeypatch):
    """Above the dense cap, a product set that loses an element must be caught.

    There `product_sizes` counts with `product_set`, so the sample is
    recounted with `convolve_rows`; a recount with `product_set` would
    compare the lost element with itself.
    """
    monkeypatch.setattr(spectral, "DENSE_CAP", 59)
    inner = growth.product_set

    def lossy(group, a, b):
        mask = inner(group, a, b).mask.copy()
        mask[np.flatnonzero(mask)[:1]] = False
        return Subset(mask)

    monkeypatch.setattr(growth, "product_set", lossy)
    with pytest.raises(CountMismatch):
        sweep_2step(a5, trials=4, seed=0)
    with pytest.raises(CountMismatch):
        sweep_bnp_two_step(a5, trials=10, seed=0)


# -- the columnar sweeps against scalar references ------------------------------------


def _gowers2_reference(group, ratios, a, b, counts):
    """The gowers2 records of one pair, one at a time, as the sweep built them before columns.

    A failed record's margin is minus the size of the class it missed.
    """
    n = group.n
    pre_lhs = a.size * b.size
    prefix = f"A={a.expr()};B={b.expr()};k="
    out = []
    for k in range(1, len(ratios)):
        r = float(ratios[k])
        pre_rhs = r * r * n * n
        skipped = pre_lhs < pre_rhs
        covered = skipped or bool(counts[k] > 0)
        if skipped:
            note = "precondition |A||B| >= R^2 n^2 not met"
        else:
            note = "" if covered else f"class {k} not inside the product set"
        margin = float(pre_lhs - pre_rhs) if covered else -float(a.ct.sizes[k])
        out.append(
            CheckResult(
                "gowers2", group.label, n, f"{prefix}{k}", float(pre_lhs), float(pre_rhs),
                margin, covered, skipped, note=note,
            )
        )
    return out


def _asymp_reference(ratios, a, b, counts, tol, inputs=""):
    """The asymp records of one pair, one at a time, with the scalar strict-bound rule."""
    group = a.ct.group
    n = group.n
    ab = a.size * b.size
    scale = 1.0 / math.sqrt(ab)
    prefix = f"A={a.expr()};B={b.expr()};k="
    out = []
    for k in range(len(ratios)):
        lhs = abs(int(counts[k]) / ab - 1.0 / n)
        rhs = float(ratios[k] * scale)
        margin = rhs + tol.strict_slack - lhs
        equality = abs(lhs - rhs) <= tol.strict_slack
        out.append(
            CheckResult(
                "asymp", group.label, n, inputs or f"{prefix}{k}", lhs, rhs, margin,
                margin > 0, note="equality hit" if equality else "",
            )
        )
    return out


def _assert_same_records(rep, want):
    (block,) = rep.blocks
    got = list(block.rows())
    assert len(got) == len(want) > 0
    for name in ("lhs", "rhs", "margin"):
        have = np.array([getattr(r, name) for r in got], dtype=np.float64)
        ref = np.array([getattr(r, name) for r in want], dtype=np.float64)
        assert np.array_equal(have.view(np.uint64), ref.view(np.uint64)), name
    for name in ("check", "group", "n", "inputs", "passed", "skipped", "seed", "note"):
        assert [getattr(r, name) for r in got] == [getattr(r, name) for r in want], name
    assert all(type(r.passed) is bool and type(r.skipped) is bool for r in got)


@pytest.mark.parametrize("spec", ["A:5", "PSL2:7"])
def test_union_sweeps_match_the_scalar_records(spec):
    ctx = get_context(spec)
    ct = ctx.classes
    ratios = growth._class_ratios(ctx.table)
    rows, pool = union_pool(ct)
    where = grid(len(pool))
    pairs = [(pool[i], pool[j]) for i, j in where.tolist()]
    counts = class_pair_counts(ct, rows, where)
    want = [
        r for (a, b), row in zip(pairs, counts) for r in _asymp_reference(ratios, a, b, row, ctx.tol)
    ]
    _assert_same_records(sweep_asymp(ctx), want)
    want = [
        r for (a, b), row in zip(pairs, counts) for r in _gowers2_reference(ctx.group, ratios, a, b, row)
    ]
    _assert_same_records(sweep_gowers2(ctx), want)


def test_builders_match_the_scalar_records_on_failing_counts(a5):
    """Counts with classes knocked out, so records fail and carry their notes."""
    ct, tol = a5.classes, a5.tol
    ratios = growth._class_ratios(a5.table)
    rows, pool = union_pool(ct)
    where, inputs, meta = growth._pool_grid(rows, range(1, ct.n_classes), 0)
    assert meta == {}
    pairs = [(pool[i], pool[j]) for i, j in where.tolist()]
    ab = np.array([a.size * b.size for a, b in pairs])
    counts = class_pair_counts(ct, rows, where)
    counts[np.random.default_rng(1).random(counts.shape) < 0.3] = 0
    want = [r for (a, b), row in zip(pairs, counts) for r in _gowers2_reference(a5.group, ratios, a, b, row)]
    assert sum(not r.passed for r in want) > 100
    rep = ReportDocument("gowers2", growth._gowers2_block(a5, ratios, ab, counts, inputs))
    _assert_same_records(rep, want)
    want = [r for (a, b), row in zip(pairs, counts) for r in _asymp_reference(ratios, a, b, row, tol)]
    assert sum(not r.passed for r in want) > 100
    _, inputs, _ = growth._pool_grid(rows, range(ct.n_classes), 0)
    rep = ReportDocument("asymp", growth._asymp_block(a5, ratios, ab, counts, inputs))
    _assert_same_records(rep, want)


def test_gowers2_failed_records_have_a_negative_margin(a5):
    """A zeroed class count fails its record with margin -|C_k|; no other record goes negative unskipped."""
    ct = a5.classes
    ratios = growth._class_ratios(a5.table)
    rows = growth._union_pool(ct, include_identity_class=True, seed=0)
    where, inputs, _ = growth._pool_grid(rows, range(1, ct.n_classes), 0)
    counts = class_pair_counts(ct, rows, where)
    counts[:, 3] = 0
    ab = (rows @ ct.sizes)[where].prod(axis=1)
    block = growth._gowers2_block(a5, ratios, ab, counts, inputs)
    rows = list(block.rows())
    failed = [not r.passed for r in rows]
    assert sum(failed) > 0
    assert [r.margin < 0 and not r.skipped for r in rows] == failed
    assert {r.margin for r in rows if not r.passed} == {-float(ct.sizes[3])}
    assert all(r.inputs.endswith("k=3") for r in rows if not r.passed)


def test_asymp_trials_match_the_scalar_records(psl27):
    """The trials mode writes one inputs string per pair, the same for every class."""
    ct, seed = psl27.classes, 5
    rng = np.random.default_rng(seed)
    pairs = [(random_normal_subset(ct, rng), random_normal_subset(ct, rng)) for _ in range(1000)]
    rows = np.stack([s.indicator for pair in pairs for s in pair])
    counts = class_pair_counts(ct, rows, np.arange(2000).reshape(-1, 2))
    ratios = growth._class_ratios(psl27.table)
    want = []
    for trial, ((a, b), row) in enumerate(zip(pairs, counts)):
        name = f"trial={trial};A={a.expr()};B={b.expr()}"
        want += _asymp_reference(ratios, a, b, row, psl27.tol, name)
    _assert_same_records(sweep_asymp(psl27, trials=1000, seed=seed), want)


@pytest.mark.parametrize("seed", [0, 3])
def test_gowers2_matches_the_scalar_records_at_the_precondition_edge(seed):
    """PSL3:2 has pairs with |A||B| = R^2 n^2 in exact arithmetic.

    There the rounding of R decides the skip, and the tables of seeds 0 and
    3 round differently (5 905 and 5 907 skips of 19 845).
    """
    ctx = get_context("PSL3:2", seed=seed)
    ct = ctx.classes
    ratios = growth._class_ratios(ctx.table)
    rows, pool = union_pool(ct)
    where = grid(len(pool))
    counts = class_pair_counts(ct, rows, where)
    want = [
        r
        for (i, j), row in zip(where.tolist(), counts)
        for r in _gowers2_reference(ctx.group, ratios, pool[i], pool[j], row)
    ]
    edge = [r for r in want if abs(r.margin) < 1e-6]
    assert edge and any(r.skipped for r in edge) and not all(r.skipped for r in edge)
    _assert_same_records(sweep_gowers2(ctx), want)
