"""Product-set growth checks driven by character ratios.

Every check computes its left-hand side by exact counting and its right-hand
side from the certified character table.  Products of two normal subsets are
counted on the class multiplication tensor by one call,
`class_pair_counts(ct, rows, where)`, which recounts an evenly spaced sample
of at most `spectral.BRUTE_FORCE_SAMPLE` of its pairs on the chunked `mul`
path: the counts at the class representatives (`pair_count`), and the
classes of A*B, read off the classes that r_i*B meets as r_i runs over the
representatives of A's classes (`_classes_met`).  That second half rests on
the class partition, which `permgroup.certify_classes` certifies once per
table.  The table is computed from the same tensor, so the sample keeps the
two routes independent.  Products of many element sets with one fixed set
are counted by `product_sizes`: one `spectral.convolve_rows` call up to the
dense cap, one `product_set` per set above it; each sweep through it
recounts a sample of its products on the other route.  A disagreement raises
`CountMismatch`.

A union pool is a (u, k) bool array of class indicator rows from the moment
`_union_pool` makes it, and each sweep over one writes a single `Records`
block: names, |A|, symmetry and triviality are read off the rows, A^2 off
one diagonal `class_pair_counts` call.

Every check that returns a `ReportDocument` takes one `GroupContext`; a
randomized sweep given `trials=None` runs its own documented default.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

import numpy as np

from . import spectral
from .chartable import (
    CharacterTable,
    character_ratio,
    class_tensor,
    frobenius_tensor,
    r_extremes,
)
from .context import GroupContext
from .errors import NotLieType, NotSimple, TrivialSubset
from .permgroup import _CHUNK_ROWS, ClassTable, FiniteGroup, certify_classes, word_image
from .reports import CheckResult, Records, ReportDocument, bound_margin
from .spectral import _recounted, _spread, convolve_rows
from .subsets import (
    NormalSubset,
    Subset,
    SubsetLike,
    random_normal_subset,
    random_subset,
    subset_mask,
    union_exprs,
    union_rows,
)
from .tolerances import DEFAULT, Tolerances

# a union sweep enumerates a pool of at most this many unions, else draws this many
RANDOM_UNION_SAMPLES = 10_000
# a pool x pool sweep of more pairs than this draws this many seeded pairs instead
PAIR_CAP = 1 << 20

# the old name of the report type; perfbench/workloads.py still builds an empty
# sweep report as GrowthReport("wlambda", "")
GrowthReport = ReportDocument


def product_set(group: FiniteGroup, a: SubsetLike, b: SubsetLike) -> Subset:
    """Exact product set A*B by brute force, chunked; stops once full."""
    a_idx = np.flatnonzero(subset_mask(a))
    b_idx = np.flatnonzero(subset_mask(b))
    out = np.zeros(group.n, dtype=bool)
    if a_idx.size == 0 or b_idx.size == 0:
        return Subset(out)
    chunk = max(1, _CHUNK_ROWS // (group.degree * b_idx.size))
    for lo in range(0, a_idx.size, chunk):
        out[group.mul(a_idx[lo : lo + chunk, None], b_idx)] = True
        if out.all():
            break
    return Subset(out)


def product_sizes(group: FiniteGroup, fixed: SubsetLike, rows: np.ndarray) -> np.ndarray:
    """|F R| for each row R of a stack of set masks (or for one mask), F = `fixed`.

    Up to `spectral.DENSE_CAP`, one `convolve_rows` call: (F R)^-1 =
    R^-1 F^-1, whose size is the number of positive entries per row of the
    inverted rows against the inverted F.  Above the cap, `_recounted_sizes`
    recounts a sample with `convolve_rows`, so the sizes come from the other
    route, one `product_set(F, R)` per row, which also stops once the
    product covers G.
    """
    rows = np.asarray(rows, dtype=bool)
    if group.n <= spectral.DENSE_CAP:
        inv = group.inverse_of
        counts = convolve_rows(group, rows[..., inv], subset_mask(fixed)[inv])
        return (counts > 0).sum(axis=-1)
    sizes = [product_set(group, fixed, r).size for r in rows.reshape(-1, group.n)]
    return np.array(sizes).reshape(rows.shape[:-1])


def _recounted_sizes(group: FiniteGroup, sample: Mapping[int, tuple], sizes: Sequence) -> None:
    """Recount the sampled |AB| of `product_sizes` on the route it did not take.

    `sample` maps the positions of `_spread` over the pairs to their (A, B).
    Up to `spectral.DENSE_CAP` the sizes came from `convolve_rows`, so the
    sample is recounted with `product_set`; above it, the other way round.
    A disagreement raises `CountMismatch`.
    """
    if group.n <= spectral.DENSE_CAP:
        def size(a, b):
            return product_set(group, a, b).size
    else:
        def size(a, b):
            return int((convolve_rows(group, subset_mask(a), subset_mask(b)) > 0).sum())
    _recounted(f"{group.label} kernel", sample, sizes, size)


def pair_count(
    group: FiniteGroup, a: SubsetLike, b: SubsetLike, g: int | np.ndarray
) -> int | np.ndarray:
    """#{(x, y) in A x B : x*y = g}, exact; one count per target for an array g.

    x*y = g  <=>  y = x^-1 g, so every target is resolved by one `mul` over
    the |A| x len(g) grid.
    """
    targets = np.asarray(g)
    a_inv = group.inverse_of[np.flatnonzero(subset_mask(a))]
    hits = subset_mask(b)[group.mul(a_inv[:, None], targets.ravel())]
    counts = hits.sum(axis=0)
    return int(counts[0]) if targets.ndim == 0 else counts.reshape(targets.shape)


def _classes_met(ct: ClassTable, a: NormalSubset, b: NormalSubset) -> np.ndarray:
    """met[c] = C_c lies in A*B, for normal A and B, from |classes of A| * |B| products.

    A*B is the union over A's classes C_i = {g r_i g^-1} of C_i B, and as
    g^-1 B g = B, g r_i g^-1 B = g (r_i B) g^-1.  So A*B holds the whole
    class of each product r_i*y with y in B, and nothing else.  This holds
    only if ct's blocks are the conjugacy classes, which `certify_classes`
    checks.
    """
    reps = ct.reps[list(a.class_indices)]
    met = np.zeros(ct.n_classes, dtype=bool)
    met[ct.class_of[ct.group.mul(reps[:, None], np.flatnonzero(b.mask))]] = True
    return met


def class_pair_counts(ct: ClassTable, rows: np.ndarray, where: np.ndarray) -> np.ndarray:
    """counts[t, c] = #{(x, y) in A_t x B_t : x*y = rep(C_c)} of each pair t, int64.

    Pair t is (A_t, B_t) = rows[where[t]], of (u, k) bool union indicators.
    For normal A and B this is the sum of the class multiplication constants
    a[i, j, c] over i in A and j in B: a contraction of the indicators with
    `class_tensor(ct)`, in blocks of pairs that keep every temporary under
    _CHUNK_ROWS entries.  A_t B_t is a union of classes, so it holds C_c
    exactly when counts[t, c] > 0.  The contraction runs in float64, through
    BLAS, and is exact: every partial sum counts pairs of elements, so it is
    at most n^2, and n^2 < 2^53 under the order cap.

    The character table is computed from the same tensor, so an evenly
    spaced sample of the pairs is recounted on the elements: each count must
    equal `pair_count` at the class representative, and the classes met by
    r_i*B, for r_i the representatives of A_t's classes, must be exactly the
    classes with a positive count (`_classes_met`).  A disagreement raises
    `CountMismatch`.  That second half needs the class partition to be
    right, so the first call on a table certifies it (`certify_classes`),
    and a wrong partition raises `ClassPartitionError` before any count.
    """
    certify_classes(ct)
    k = ct.n_classes
    flat = class_tensor(ct).reshape(k, k * k).astype(np.float64)
    out = np.empty((len(where), k), dtype=np.int64)
    step = max(1, _CHUNK_ROWS // (k * k))
    for lo in range(0, len(where), step):
        a = rows[where[lo : lo + step, 0]].astype(np.float64)
        b = rows[where[lo : lo + step, 1]].astype(np.float64)
        # partial[t, j, c] = sum over classes i of A_t of a[i, j, c]
        partial = (a @ flat).reshape(-1, k, k)
        out[lo : lo + step] = (b[:, None] @ partial)[:, 0]
    # per sampled pair: the counts at the representatives, then the elements
    # of A*B per class, which are all of a class with a positive count
    sample = {t: np.stack([out[t], (out[t] > 0) * ct.sizes]) for t in _spread(len(where))}

    def on_elements(i, j):
        a, b = (NormalSubset.from_classes(ct, np.flatnonzero(rows[r])) for r in (i, j))
        return np.stack([pair_count(ct.group, a, b, ct.reps), _classes_met(ct, a, b) * ct.sizes])

    _recounted(f"{ct.group.label} class tensor", {t: where[t] for t in sample}, sample, on_elements)
    return out


def _squares_met(ct: ClassTable, rows: np.ndarray) -> np.ndarray:
    """met[u, c] = class c lies in A_u^2, for the union rows: one diagonal `class_pair_counts`."""
    return class_pair_counts(ct, rows, np.arange(len(rows)).repeat(2).reshape(-1, 2)) > 0


# -- record blocks from per-pair counts -------------------------------------------


def _2step_block(
    ctx: GroupContext, r_min: np.ndarray, b_size: np.ndarray, ab: np.ndarray, inputs: list
) -> Records:
    """The 2step records: |AB| >= n / (1 + R^2 (n/|B| - 1)) with R = min ratio on A.

    Also checks the weaker closed form |AB| >= min(n/2, |B| / (2 R^2)),
    which is n/2 when R = 0.
    """
    n = ctx.n
    bound = n / (1.0 + r_min * r_min * (n / b_size - 1.0))
    with np.errstate(divide="ignore"):
        weak = np.minimum(n / 2.0, b_size / (2.0 * r_min * r_min))
    rhs = np.maximum(bound, weak)
    margin, passed = bound_margin(ab, rhs, ctx.tol.slack, ">=")
    return Records("2step", ctx.label, n, inputs, ("",), ab, rhs, margin, passed)


def _gowers2_block(
    ctx: GroupContext,
    ratios: np.ndarray,
    ab: np.ndarray,
    counts: np.ndarray,
    inputs: tuple,
) -> Records:
    """The gowers2 records of every pair and nonidentity class; `inputs` = (prefixes, suffixes).

    |A||B| >= R(g_k)^2 n^2 forces class k inside A*B.  A record is SKIPPED
    (not failed) when that precondition does not hold.  The margin is the
    precondition's room, negative on a skipped record, except on a failed
    record: there it is -|C_k|, the size of the class the product set
    missed.  |A||B| <= n^2 < 2^53, so the int64 sizes convert to float64
    exactly and the int-versus-float test has the bits of an exact
    comparison.
    """
    n, k = ctx.n, len(ratios)
    pre_lhs = ab[:, None]
    pre_rhs = ratios[1:] * ratios[1:] * n * n
    skipped = pre_lhs < pre_rhs
    met = counts[:, 1:] > 0
    missed = -ctx.classes.sizes[1:].astype(np.float64)
    shape = skipped.shape
    # note codes: 0 none, 1 the precondition, 1 + c class c not covered
    notes = ("", "precondition |A||B| >= R^2 n^2 not met") + tuple(
        f"class {c} not inside the product set" for c in range(1, k)
    )
    return Records(
        "gowers2", ctx.label, n, *inputs,
        np.broadcast_to(pre_lhs.astype(np.float64), shape),
        np.broadcast_to(pre_rhs, shape),
        np.where(skipped | met, pre_lhs - pre_rhs, missed),
        skipped | met,
        skipped,
        np.where(skipped, 1, np.where(met, 0, np.arange(2, k + 1))),
        notes,
    )


def _class_ratios(tab: CharacterTable) -> np.ndarray:
    """R(g_k) for every class, with R = 1 at the identity."""
    ratios = np.empty(tab.n_classes)
    ratios[0] = 1.0
    if tab.n_classes > 1:
        ratios[1:] = tab.ratios()[1:]
    return ratios


def _asymp_block(
    ctx: GroupContext,
    ratios: np.ndarray,
    ab: np.ndarray,
    counts: np.ndarray,
    inputs: tuple,
) -> Records:
    """The asymp records of every pair and class; `inputs` = (prefixes, suffixes) of `Records`.

    |P_AB(g) - 1/n| < R(g)/sqrt(|A||B|), strict; exact-equality hits are
    flagged in the note instead of failing, and the identity class is
    included (R = 1 there).
    """
    tol = ctx.tol.strict_slack
    # counts and |A||B| are below 2^53, so count / ab is correctly rounded,
    # as float(Fraction(count, ab)) is
    lhs = np.abs(counts / ab[:, None] - 1.0 / ctx.n)
    rhs = ratios * (1.0 / np.sqrt(ab[:, None]))
    margin, passed = bound_margin(lhs, rhs, tol, "<")
    equality = np.abs(lhs - rhs) <= tol
    return Records(
        "asymp", ctx.label, ctx.n, *inputs, lhs, rhs, margin, passed,
        note=equality, notes=("", "equality hit"),
    )


def dichotomy_check(
    group: FiniteGroup,
    tab: CharacterTable,
    a: NormalSubset,
    tol: Tolerances = DEFAULT,
) -> CheckResult:
    """Square dichotomy with R = max nontrivial ratio over the whole group.

    |A| >= R n forces A^2 to cover G minus the identity; otherwise
    |A^2| >= |A| / (2R).
    """
    if a.is_trivial():
        raise TrivialSubset("A must be nonempty and different from {1}")
    return _dichotomy_block(GroupContext(group, a.ct, tab, tol), a.indicator[None]).row(0)


def _dichotomy_block(ctx: GroupContext, rows: np.ndarray) -> Records:
    """The dichotomy records of the unions `rows`, from the classes of each A^2.

    In the covering branch lhs is |A^2|, rhs n - 1 and margin their
    difference, and the record passes when A^2 holds G minus the identity.
    """
    ct, n = ctx.classes, ctx.n
    _, r_max = r_extremes(ctx.table, range(1, ctx.table.n_classes))
    met = _squares_met(ct, rows)
    a2, size = met @ ct.sizes, rows @ ct.sizes
    covering = size >= r_max * n
    growth_rhs = size / (2.0 * r_max)
    margin, passed = bound_margin(a2, growth_rhs, ctx.tol.slack, ">=")
    return Records(
        "dichotomy", ctx.label, n, [f"A={x}" for x in union_exprs(rows)], ("",),
        a2,
        np.where(covering, n - 1.0, growth_rhs),
        np.where(covering, a2 - (n - 1), margin),
        np.where(covering, met[:, 1:].all(axis=1), passed),
        note=~covering,
        notes=("covering branch |A| >= R n", "growth branch |A| < R n"),
    )


# -- reports over families ------------------------------------------------------


def gluck_report(ctx: GroupContext) -> ReportDocument:
    """Max nontrivial character ratio vs. the 19/20 bound for groups of Lie type.

    Reports sqrt(q) * R_max alongside, with q the order of the defining
    field, the scale on which the ratio decays.
    """
    group, tab = ctx.group, ctx.table
    q = group.field_order
    if q is None:
        raise NotLieType(f"{group.label} was not built with a defining field")
    _, r_max = r_extremes(tab, range(1, tab.n_classes))
    rec = CheckResult.bound(
        "gluck", group.label, group.n, f"q={q}", r_max, 19.0 / 20.0, ctx.tol.slack
    )
    return ReportDocument(
        title=f"growth gluck {group.label}",
        results=[rec],
        meta={
            "q": q,
            "r_max": float(r_max),
            "sqrt_q_r_max": float(math.sqrt(q) * r_max),
            "nineteen_twentieths_ok": rec.passed,
        },
    )


def square_growth_survey(ctx: GroupContext) -> ReportDocument:
    """Census of the squaring exponent over unions A of nonidentity classes.

    Every union when there are at most RANDOM_UNION_SAMPLES, else that many
    drawn.  For each, records whether A^2 covers G minus the identity;
    otherwise records eps(A) = log|A^2| / log|A| - 1.  No assertion, report
    only.
    """
    group, ct = ctx.group, ctx.classes
    if not group.simple:
        raise NotSimple("square growth survey expects a simple group")
    rows = _union_pool(ct, include_identity_class=False, seed=0)
    met = _squares_met(ct, rows)
    a2, size = met @ ct.sizes, rows @ ct.sizes
    covering = met[:, 1:].all(axis=1)
    growing = np.flatnonzero(~covering)
    # math.log, as `min_eps_non_covering` in meta keeps every bit of it
    eps = [
        math.log(x) / math.log(y) - 1.0 for x, y in zip(a2[growing].tolist(), size[growing].tolist())
    ]
    # note 0 is "covering", note i the eps of the i-th union that does not cover
    note = np.zeros(len(rows), dtype=np.intp)
    note[growing] = np.arange(1, growing.size + 1)
    block = Records(
        "survey", group.label, group.n, [f"A={x}" for x in union_exprs(rows)], ("",),
        a2, np.where(covering, group.n - 1, size), np.zeros(len(rows)), np.ones(len(rows), bool),
        note=note, notes=("covering", *(f"eps={e:.6f}" for e in eps)),
    )
    report = ReportDocument(
        title=f"growth survey {group.label}",
        results=block,
        meta={
            "min_eps_non_covering": min(eps) if eps else None,
            "covering_count": int(covering.sum()),
            "union_count": len(rows),
        },
    )
    if group.field_order is not None:
        report.meta["log_q_order"] = math.log(group.n) / math.log(group.field_order)
    return report


def pyber_report(ctx: GroupContext) -> ReportDocument:
    """Census: symmetric normal A with |A| > n/log2(n), does A^2 = G?

    Over every class union when there are at most RANDOM_UNION_SAMPLES, else
    that many drawn.  Report only, no assertion.
    """
    group, ct = ctx.group, ctx.classes
    if not group.simple:
        raise NotSimple("the square census expects a simple group")
    n = group.n
    threshold = n / math.log2(n)
    rows = _union_pool(ct, include_identity_class=True, seed=0)
    symmetric = (rows == rows[:, ct.inverse_class]).all(axis=1)
    rows = rows[symmetric & (rows @ ct.sizes > threshold)]
    a2 = _squares_met(ct, rows) @ ct.sizes
    short = a2 != n
    block = Records(
        "pyber", group.label, n, [f"A={x}" for x in union_exprs(rows)], ("",),
        a2, np.full(len(rows), n), np.zeros(len(rows)), np.ones(len(rows), bool),
        note=short, notes=("A^2 = G", "A^2 != G"),
    )
    return ReportDocument(
        title=f"growth pyber {group.label}",
        results=block,
        meta={
            "threshold": threshold,
            "qualifying": len(rows),
            "square_covers": int(len(rows) - short.sum()),
        },
    )


def word_growth_report(ctx: GroupContext, word1: str, word2: str) -> ReportDocument:
    """Deviation bound applied to two word-map images.

    Word images are normal subsets containing the identity, so for every
    nonidentity class g the scaled deviation |P(g) n - 1| must stay under
    n R(g) / sqrt of the image-size product.
    """
    group, ct, tab, tol = ctx.group, ctx.classes, ctx.table, ctx.tol
    img1 = NormalSubset.from_subset(ct, word_image(ct, word1))
    img2 = NormalSubset.from_subset(ct, word_image(ct, word2))
    n = group.n
    ab = img1.size * img2.size
    scale = n / math.sqrt(ab)
    rows = np.stack([img1.indicator, img2.indicator])
    counts = class_pair_counts(ct, rows, np.array([[0, 1]]))[0]
    records = []
    for k in range(1, ct.n_classes):
        # |P(g) n - 1| = |count n - ab| / ab exactly; int / int rounds it correctly
        lhs = abs(int(counts[k]) * n - ab) / ab
        rhs = character_ratio(tab, k) * scale
        equality = abs(lhs - rhs) <= tol.strict_slack
        records.append(
            CheckResult.bound(
                "words", group.label, n, f"w1={word1};w2={word2};k={k}",
                lhs, rhs, tol.strict_slack, "<",
                note="equality hit" if equality else "",
            )
        )
    return ReportDocument(
        title=f"growth words {group.label}",
        results=records,
        meta={
            "word1": word1,
            "word2": word2,
            "image1_size": img1.size,
            "image2_size": img2.size,
            "image1_ratio": img1.size / n,
            "image2_ratio": img2.size / n,
            "image1_classes": list(img1.class_indices),
            "image2_classes": list(img2.class_indices),
        },
    )


# -- sweep harnesses -------------------------------------------------------------


def _union_pool(ct: ClassTable, include_identity_class: bool, seed: int) -> np.ndarray:
    """The (u, k) bool indicator rows of a sweep's pool of class unions.

    Every union, in the bitmask order of `union_rows`, when there are at
    most RANDOM_UNION_SAMPLES; else that many drawn with
    `random_normal_subset` from `default_rng(seed)`.  Draws that repeat a
    union are skipped, so the pool holds each union once, in the order of
    its first draw.
    """
    if (1 << ct.n_classes - (not include_identity_class)) - 1 <= RANDOM_UNION_SAMPLES:
        return union_rows(ct, include_identity_class)
    rng = np.random.default_rng(seed)
    pool: dict = {}
    while len(pool) < RANDOM_UNION_SAMPLES:
        a = random_normal_subset(ct, rng, include_identity_class=include_identity_class)
        pool.setdefault(a.class_indices, a.indicator)
    return np.array(list(pool.values()))


def _pool_grid(rows: np.ndarray, classes: range, seed: int) -> tuple:
    """where, inputs and meta of pool x pool, A-major: prefix "A=...;", suffix "B=...;k=c".

    Past PAIR_CAP pairs, PAIR_CAP distinct pairs drawn with `seed`, in pool
    order, each with its prefix "A=...;B=...;k=", and meta states the cap.
    """
    u = len(rows)
    names = union_exprs(rows)
    if u * u <= PAIR_CAP:
        where = np.indices((u, u)).reshape(2, -1).T
        suffixes = [f"B={y};k={c}" for y in names for c in classes]
        return where, ([f"A={x};" for x in names], suffixes), {}
    drawn = np.random.default_rng(seed).choice(u * u, PAIR_CAP, replace=False, shuffle=False)
    where = np.stack(np.divmod(np.sort(drawn), u), axis=1)
    prefixes = [f"A={names[a]};B={names[b]};k=" for a, b in where.tolist()]
    meta = {"pair_cap": PAIR_CAP, "pool_pairs": u * u}
    return where, (prefixes, [str(c) for c in classes]), meta


def sweep_2step(
    ctx: GroupContext, trials: Optional[int] = None, seed: int = 0
) -> ReportDocument:
    """Normal A against seeded random element sets B.

    A runs over every class union when there are at most
    RANDOM_UNION_SAMPLES, else over that many drawn with `seed`.  `trials`
    B per A, 100 by default.  Per A, its B are stacked as rows and counted
    with one `product_sizes` call.  Only the pairs that `_recounted_sizes`
    samples are kept, at positions known before any draw.
    """
    group, ct, n = ctx.group, ctx.classes, ctx.n
    trials = 100 if trials is None else trials
    rng = np.random.default_rng(seed)
    rows = _union_pool(ct, include_identity_class=True, seed=seed)
    sample = dict.fromkeys(_spread(len(rows) * trials))
    b_size, ab = [], []
    for i, row in enumerate(rows):
        a = row[ct.class_of]
        bs = np.array([random_subset(n, rng).mask for _ in range(trials)], dtype=bool).reshape(-1, n)
        b_size += bs.sum(axis=1).tolist()
        ab += product_sizes(group, a, bs).tolist()
        # a copy, so a kept B holds no other row of its stack alive
        sample.update({t: (a, bs[t % trials].copy()) for t in sample if t // trials == i})
    _recounted_sizes(group, sample, ab)
    names = union_exprs(rows)
    inputs = [
        f"A={names[i // trials]};B=random(seed={seed},trial={i % trials},|B|={size})"
        for i, size in enumerate(b_size)
    ]
    r_min = np.where(rows, ctx.table.ratios(), np.inf).min(axis=1).repeat(trials)
    block = _2step_block(ctx, r_min, np.array(b_size), np.array(ab), inputs)
    return ReportDocument(title=f"growth 2step {group.label}", results=block)


def sweep_gowers2(ctx: GroupContext, unions: bool = True) -> ReportDocument:
    """All (A, B, k), or PAIR_CAP seeded (A, B): unions when requested, else single classes."""
    group, ct = ctx.group, ctx.classes
    if unions:
        rows = _union_pool(ct, include_identity_class=True, seed=0)
    else:
        rows = np.eye(ct.n_classes, dtype=bool)
    where, inputs, meta = _pool_grid(rows, range(1, ct.n_classes), seed=0)
    counts = class_pair_counts(ct, rows, where)
    ab = (rows @ ct.sizes)[where].prod(axis=1)
    block = _gowers2_block(ctx, _class_ratios(ctx.table), ab, counts, inputs)
    return ReportDocument(title=f"growth gowers2 {group.label}", results=block, meta=meta)


def sweep_asymp(
    ctx: GroupContext, trials: Optional[int] = None, seed: int = 0
) -> ReportDocument:
    """Deviation bound over `trials` seeded random union pairs.

    By default (`trials=None`) over every pair of class unions instead, or
    over PAIR_CAP pairs drawn with `seed` when there are more.
    """
    ct = ctx.classes
    if trials is None:
        rows = _union_pool(ct, include_identity_class=True, seed=seed)
        where, inputs, meta = _pool_grid(rows, range(ct.n_classes), seed)
    else:
        rng = np.random.default_rng(seed)
        drawn = [random_normal_subset(ct, rng).indicator for _ in range(2 * trials)]
        rows = np.array(drawn, dtype=bool).reshape(-1, ct.n_classes)
        where = np.arange(2 * trials).reshape(-1, 2)
        names = union_exprs(rows)
        prefixes = [f"trial={t};A={names[2 * t]};B={names[2 * t + 1]}" for t in range(trials)]
        inputs, meta = (prefixes, [""] * ct.n_classes), {}
    counts = class_pair_counts(ct, rows, where)
    ab = (rows @ ct.sizes)[where].prod(axis=1)
    block = _asymp_block(ctx, _class_ratios(ctx.table), ab, counts, inputs)
    return ReportDocument(title=f"growth asymp {ctx.label}", results=block, meta=meta)


def sweep_dichotomy(ctx: GroupContext) -> ReportDocument:
    """Dichotomy over every nontrivial class union, or RANDOM_UNION_SAMPLES drawn past that many."""
    rows = _union_pool(ctx.classes, include_identity_class=True, seed=0)
    rows = rows[rows[:, 1:].any(axis=1)]
    # a one-class group has no nontrivial union, and no nontrivial ratio for R
    block = _dichotomy_block(ctx, rows) if len(rows) else ()
    return ReportDocument(title=f"growth dichotomy {ctx.label}", results=block)


def frobenius_oracle_report(ctx: GroupContext) -> ReportDocument:
    """Exact pair counts vs. the character formula over every class triple.

    Each constant of `frobenius_tensor` must round to the count of pairs in
    C_i x C_j with product rep(C_k), which `pair_count` takes from the
    elements, not from the class tensor the table was computed from.
    """
    group, ct = ctx.group, ctx.classes
    formula = frobenius_tensor(ctx.table).real
    records = []
    for i, j in np.ndindex(formula.shape[:2]):
        a = NormalSubset.from_classes(ct, [i])
        b = NormalSubset.from_classes(ct, [j])
        for kk, exact in enumerate(pair_count(group, a, b, ct.reps).tolist()):
            approx = formula[i, j, kk]
            dev = abs(approx - exact)
            rel = dev / max(1.0, float(exact))
            rounds = int(round(approx)) == exact
            records.append(
                CheckResult(
                    check="frobenius-oracle",
                    group=group.label,
                    n=group.n,
                    inputs=f"i={i};j={j};k={kk}",
                    lhs=float(exact),
                    rhs=float(approx),
                    margin=float(ctx.tol.pab_relative - rel),
                    passed=bool(rounds and rel <= ctx.tol.pab_relative),
                )
            )
    return ReportDocument(
        title=f"growth frobenius-oracle {group.label}", results=records
    )
