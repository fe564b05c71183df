"""Product-set growth checks driven by character ratios.

Every check computes its left-hand side by exact counting and its right-hand
side from the certified character table.  Products of two normal subsets
are counted on the class multiplication tensor by one call,
`class_pair_counts(ct, pairs)`, which recounts an evenly spaced sample of
at most `spectral.BRUTE_FORCE_SAMPLE` of its (A, B) pairs on the chunked
`mul` path: the counts at the class representatives (`pair_count`), and the
classes of A*B, read off the classes that r_i*B meets as r_i runs over the
representatives of A's classes (`_classes_met`).  That second half rests on
the class partition, which `permgroup.certify_classes` certifies once per
table.  The table is computed from the same tensor, so the sample keeps the
two routes independent.  Products of many element sets with one
fixed set are counted by `product_sizes`: one `spectral.convolve_rows` call
up to the dense cap, one `product_set` per set above it; each sweep through
it recounts a sample of its products on the other route.  A disagreement
raises `CountMismatch`.

Every check that returns a `ReportDocument` takes one `GroupContext`; a
randomized sweep given `trials=None` runs its own documented default.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

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
from .reports import CheckResult, ReportDocument
from .spectral import _recounted, _spread, convolve_rows
from .subsets import (
    NormalSubset,
    Subset,
    SubsetLike,
    enumerate_normal_subsets,
    random_normal_subset,
    random_subset,
    subset_mask,
)
from .tolerances import DEFAULT, Tolerances

# exhaustive union sweeps are allowed while 2^(k-1) stays at or below this
EXHAUSTIVE_UNION_CAP = 4096
RANDOM_UNION_SAMPLES = 10_000

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
    inverted rows against the inverted F.  Above the cap that call would walk
    an n-wide translate per element of the smaller support, so each row is
    `product_set(F, R)` instead, which stops once the product covers G.
    """
    rows = np.asarray(rows, dtype=bool)
    if group.n <= spectral.DENSE_CAP:
        inv = group.inverse_of
        counts = convolve_rows(group, rows[..., inv], subset_mask(fixed)[inv])
        return (counts > 0).sum(axis=-1)
    sizes = [product_set(group, fixed, r).size for r in rows.reshape(-1, group.n)]
    return np.array(sizes).reshape(rows.shape[:-1])


def _recounted_sizes(group: FiniteGroup, pairs: Sequence[tuple], sizes: Sequence) -> None:
    """Recount a sample of the |AB| of `product_sizes` on the route it did not take.

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
    _recounted(f"{group.label} kernel", pairs, sizes, size)


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


def class_pair_counts(ct: ClassTable, pairs: Sequence[tuple]) -> np.ndarray:
    """counts[t, c] = #{(x, y) in A_t x B_t : x*y = rep(C_c)} of each (A_t, B_t), int64.

    For normal A and B this is the sum of the class multiplication constants
    a[i, j, c] over i in A and j in B: a contraction of the union indicators
    with `class_tensor(ct)`, in blocks of pairs that keep every temporary
    under _CHUNK_ROWS entries.  A_t B_t is a union of classes, so it holds
    C_c exactly when counts[t, c] > 0.  The contraction runs in float64,
    through BLAS, and is exact: every partial sum counts pairs of elements,
    so it is at most n^2, and n^2 < 2^53 under the order cap.

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
    # one bool indicator row per distinct set object (sweeps pair a pool with
    # itself), and where[t] = (row of A_t, row of B_t); a block widens only
    # the rows it gathers
    sets = [s for pair in pairs for s in pair]
    _, first, where = np.unique(
        np.array([id(s) for s in sets]), return_index=True, return_inverse=True
    )
    where = where.reshape(len(pairs), 2)
    rows = np.zeros((first.size, k), dtype=bool)
    for r, t in enumerate(first):
        rows[r, list(sets[t].class_indices)] = True
    out = np.empty((len(pairs), k), dtype=np.int64)
    step = max(1, _CHUNK_ROWS // (k * k))
    for lo in range(0, len(pairs), step):
        a = rows[where[lo : lo + step, 0]].astype(np.float64)
        b = rows[where[lo : lo + step, 1]].astype(np.float64)
        # partial[t, j, c] = sum over classes i of A_t of a[i, j, c]
        partial = (a @ flat).reshape(-1, k, k)
        out[lo : lo + step] = (b[:, None] @ partial)[:, 0]
    group = ct.group
    # per sampled pair: the counts at the representatives, then the elements
    # of A*B per class, which are all of a class with a positive count
    sample = {t: np.stack([out[t], (out[t] > 0) * ct.sizes]) for t in _spread(len(pairs))}

    def on_elements(a, b):
        at_reps = pair_count(group, a, b, ct.reps)
        return np.stack([at_reps, _classes_met(ct, a, b) * ct.sizes])

    _recounted(f"{group.label} class tensor", pairs, sample, on_elements)
    return out


# -- records from per-pair counts -----------------------------------------------


def _2step_record(
    group: FiniteGroup, r_min: float, b_size: int, ab: int, inputs: str, tol: Tolerances
) -> CheckResult:
    """The 2step record: |AB| >= n / (1 + R^2 (n/|B| - 1)) with R = min ratio on A.

    Also checks the weaker closed form |AB| >= min(n/2, |B| / (2 R^2)).
    """
    n = group.n
    bound = n / (1.0 + r_min * r_min * (n / b_size - 1.0))
    weak = min(n / 2.0, b_size / (2.0 * r_min * r_min)) if r_min > 0 else n / 2.0
    return CheckResult.bound(
        "2step", group.label, n, inputs, ab, max(bound, weak), tol.slack, ">="
    )


def _gowers2_records(
    group: FiniteGroup,
    ratios: np.ndarray,
    a: NormalSubset,
    b: NormalSubset,
    counts: np.ndarray,
) -> list[CheckResult]:
    """The gowers2 records of every nonidentity class, from AB's per-class counts.

    |A||B| >= R(g_k)^2 n^2 forces class k inside A*B.  A record is SKIPPED
    (not failed) when that precondition does not hold; the margin is the
    precondition's room, negative on a skipped record.
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
        out.append(
            CheckResult(
                check="gowers2",
                group=group.label,
                n=n,
                inputs=f"{prefix}{k}",
                lhs=float(pre_lhs),
                rhs=float(pre_rhs),
                margin=float(pre_lhs - pre_rhs),
                passed=covered,
                skipped=skipped,
                note=note,
            )
        )
    return out


def _class_ratios(tab: CharacterTable) -> np.ndarray:
    """R(g_k) for every class, with R = 1 at the identity."""
    ratios = np.empty(tab.n_classes)
    ratios[0] = 1.0
    if tab.n_classes > 1:
        ratios[1:] = tab.ratios()[1:]
    return ratios


def _asymp_records(
    ratios: np.ndarray,
    a: NormalSubset,
    b: NormalSubset,
    counts: np.ndarray,
    tol: Tolerances,
    inputs: str = "",
) -> list[CheckResult]:
    """The asymp records of every class, from AB's per-class pair counts.

    |P_AB(g) - 1/n| < R(g)/sqrt(|A||B|), strict; exact-equality hits are
    flagged in the note instead of failing, and the identity class is
    included (R = 1 there).
    """
    group = a.ct.group
    n = group.n
    ab = a.size * b.size
    scale = 1.0 / math.sqrt(ab)
    prefix = f"A={a.expr()};B={b.expr()};k="
    out = []
    for k in range(len(ratios)):
        # int / int is correctly rounded, as float(Fraction(count, ab)) is
        lhs = abs(int(counts[k]) / ab - 1.0 / n)
        rhs = ratios[k] * scale
        equality = abs(lhs - rhs) <= tol.strict_slack
        out.append(
            CheckResult.bound(
                "asymp", group.label, n, inputs or f"{prefix}{k}",
                lhs, rhs, tol.strict_slack, "<",
                note="equality hit" if equality else "",
            )
        )
    return out


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
    counts = class_pair_counts(a.ct, [(a, a)])[0]
    return _dichotomy_record(group, tab, a, counts, tol)


def _dichotomy_record(
    group: FiniteGroup,
    tab: CharacterTable,
    a: NormalSubset,
    counts: np.ndarray,
    tol: Tolerances,
) -> CheckResult:
    """The dichotomy record of A, from the per-class counts of A^2."""
    n = group.n
    _, r_max = r_extremes(tab, range(1, tab.n_classes))
    a2_size = _covered_size(a.ct, counts)
    name = f"A={a.expr()}"
    if a.size >= r_max * n:
        return CheckResult(
            check="dichotomy",
            group=group.label,
            n=n,
            inputs=name,
            lhs=float(a2_size),
            rhs=float(n - 1),
            margin=float(a2_size - (n - 1)),
            passed=_covers_nonidentity(counts),
            note="covering branch |A| >= R n",
        )
    return CheckResult.bound(
        "dichotomy", group.label, n, name, a2_size, a.size / (2.0 * r_max),
        tol.slack, ">=", note="growth branch |A| < R n",
    )


def _covered_size(ct: ClassTable, counts: np.ndarray) -> int:
    """|AB| from AB's per-class counts: the sizes of the classes it meets."""
    return int(ct.sizes[counts > 0].sum())


def _covers_nonidentity(counts: np.ndarray) -> bool:
    """AB holds G minus the identity; the identity may be missing."""
    return bool((counts[1:] > 0).all())


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
    """Census of the squaring exponent over unions of nonidentity classes.

    For each nonempty union A of nonidentity classes, records whether A^2
    covers G minus the identity; otherwise records
    eps(A) = log|A^2| / log|A| - 1.  No assertion, report only.
    """
    group, ct = ctx.group, ctx.classes
    if not group.simple:
        raise NotSimple("square growth survey expects a simple group")
    subsets = _union_sweep(ct, include_identity_class=False, seed=0)
    records = []
    eps_values = []
    for a, counts in zip(subsets, class_pair_counts(ct, [(a, a) for a in subsets])):
        a2_size = _covered_size(ct, counts)
        if _covers_nonidentity(counts):
            rhs, note = group.n - 1, "covering"
        else:
            eps = math.log(a2_size) / math.log(a.size) - 1.0
            eps_values.append(eps)
            rhs, note = a.size, f"eps={eps:.6f}"
        records.append(
            CheckResult(
                check="survey",
                group=group.label,
                n=group.n,
                inputs=f"A={a.expr()}",
                lhs=float(a2_size),
                rhs=float(rhs),
                margin=0.0,
                passed=True,
                note=note,
            )
        )
    report = ReportDocument(
        title=f"growth survey {group.label}",
        results=records,
        meta={
            "min_eps_non_covering": min(eps_values) if eps_values else None,
            "covering_count": sum(1 for r in records if r.note == "covering"),
            "union_count": len(records),
        },
    )
    if group.field_order is not None:
        report.meta["log_q_order"] = math.log(group.n) / math.log(group.field_order)
    return report


def pyber_report(ctx: GroupContext) -> ReportDocument:
    """Census: symmetric normal A with |A| > n/log2(n), does A^2 = G?

    Report only, no assertion.
    """
    group, ct = ctx.group, ctx.classes
    if not group.simple:
        raise NotSimple("the square census expects a simple group")
    n = group.n
    threshold = n / math.log2(n)
    subsets = [
        a
        for a in _union_sweep(ct, include_identity_class=True, seed=0)
        if a.symmetric and a.size > threshold
    ]
    records = []
    for a, counts in zip(subsets, class_pair_counts(ct, [(a, a) for a in subsets])):
        a2_size = _covered_size(ct, counts)
        full = a2_size == n
        records.append(
            CheckResult(
                check="pyber",
                group=group.label,
                n=n,
                inputs=f"A={a.expr()}",
                lhs=float(a2_size),
                rhs=float(n),
                margin=0.0,
                passed=True,
                note="A^2 = G" if full else "A^2 != G",
            )
        )
    return ReportDocument(
        title=f"growth pyber {group.label}",
        results=records,
        meta={
            "threshold": threshold,
            "qualifying": len(records),
            "square_covers": sum(1 for r in records if r.note == "A^2 = G"),
        },
    )


def word_growth_report(ctx: GroupContext, word1: str, word2: str) -> ReportDocument:
    """Deviation bound applied to two word-map images.

    Word images are normal subsets containing the identity, so for every
    nonidentity class g the scaled deviation |P(g) n - 1| must stay under
    n R(g) / sqrt of the image-size product.
    """
    group, ct, tab, tol = ctx.group, ctx.classes, ctx.table, ctx.tol
    img1 = NormalSubset.from_subset(ct, word_image(group, word1))
    img2 = NormalSubset.from_subset(ct, word_image(group, word2))
    n = group.n
    ab = img1.size * img2.size
    scale = n / math.sqrt(ab)
    counts = class_pair_counts(ct, [(img1, img2)])[0]
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


def _union_sweep(
    ct: ClassTable, include_identity_class: bool, seed: int
) -> list[NormalSubset]:
    """Exhaustive class unions when feasible, else seeded random unions."""
    k = ct.n_classes
    if 2 ** (k - 1) <= EXHAUSTIVE_UNION_CAP:
        return enumerate_normal_subsets(
            ct, include_identity_class=include_identity_class
        )
    rng = np.random.default_rng(seed)
    return [
        random_normal_subset(ct, rng, include_identity_class=include_identity_class)
        for _ in range(RANDOM_UNION_SAMPLES)
    ]


def sweep_2step(
    ctx: GroupContext, trials: Optional[int] = None, seed: int = 0
) -> ReportDocument:
    """Every normal A (exhaustive unions) against seeded random element sets B.

    `trials` B per A, 100 by default.  Per A, its B are stacked as rows and
    counted with one `product_sizes` call.
    """
    group = ctx.group
    trials = 100 if trials is None else trials
    rng = np.random.default_rng(seed)
    records, pairs, sizes = [], [], []
    for a in _union_sweep(ctx.classes, include_identity_class=True, seed=seed):
        bs = [random_subset(group.n, rng) for _ in range(trials)]
        rows = np.array([b.mask for b in bs], dtype=bool).reshape(-1, group.n)
        counts = product_sizes(group, a, rows).tolist()
        r_min, _ = r_extremes(ctx.table, a)
        for trial, (b, ab) in enumerate(zip(bs, counts)):
            inputs = f"A={a.expr()};B=random(seed={seed},trial={trial},|B|={b.size})"
            records.append(_2step_record(group, r_min, b.size, ab, inputs, ctx.tol))
        pairs += [(a, b) for b in bs]
        sizes += counts
    _recounted_sizes(group, pairs, sizes)
    return ReportDocument(title=f"growth 2step {group.label}", results=records)


def sweep_gowers2(ctx: GroupContext, unions: bool = True) -> ReportDocument:
    """All (A, B, k): unions when requested, else single classes."""
    group, ct = ctx.group, ctx.classes
    if unions:
        pool = _union_sweep(ct, include_identity_class=True, seed=0)
    else:
        pool = [
            NormalSubset.from_classes(ct, [i]) for i in range(ct.n_classes)
        ]
    pairs = [(a, b) for a in pool for b in pool]
    ratios = _class_ratios(ctx.table)
    records = []
    for (a, b), row in zip(pairs, class_pair_counts(ct, pairs)):
        records.extend(_gowers2_records(group, ratios, a, b, row))
    return ReportDocument(title=f"growth gowers2 {group.label}", results=records)


def sweep_asymp(
    ctx: GroupContext, trials: Optional[int] = None, seed: int = 0
) -> ReportDocument:
    """Deviation bound over `trials` seeded random union pairs.

    By default (`trials=None`) over every pair of class unions instead.
    """
    ct = ctx.classes
    if trials is None:
        pool = _union_sweep(ct, include_identity_class=True, seed=seed)
        chosen = [(a, b) for a in pool for b in pool]
        names = [""] * len(chosen)
    else:
        rng = np.random.default_rng(seed)
        chosen = [
            (random_normal_subset(ct, rng), random_normal_subset(ct, rng))
            for _ in range(trials)
        ]
        names = [
            f"trial={trial};A={a.expr()};B={b.expr()}"
            for trial, (a, b) in enumerate(chosen)
        ]
    ratios = _class_ratios(ctx.table)
    records = []
    for (a, b), row, name in zip(chosen, class_pair_counts(ct, chosen), names):
        records.extend(_asymp_records(ratios, a, b, row, ctx.tol, name))
    return ReportDocument(title=f"growth asymp {ctx.label}", results=records)


def sweep_dichotomy(ctx: GroupContext) -> ReportDocument:
    """Dichotomy over every nontrivial normal subset (exhaustive unions)."""
    ct = ctx.classes
    pool = [
        a
        for a in _union_sweep(ct, include_identity_class=True, seed=0)
        if not a.is_trivial()
    ]
    records = [
        _dichotomy_record(ctx.group, ctx.table, a, counts, ctx.tol)
        for a, counts in zip(pool, class_pair_counts(ct, [(a, a) for a in pool]))
    ]
    return ReportDocument(title=f"growth dichotomy {ctx.label}", results=records)


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
