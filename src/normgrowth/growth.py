"""Product-set growth checks driven by character ratios.

Every check computes its left-hand side by brute force on the group and its
right-hand side from the certified character table, so the two routes stay
independent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import numpy as np

from . import tolerances as tol
from .chartable import CharacterTable, character_ratio, frobenius_tensor, r_extremes
from .errors import NotLieType, TrivialSubset
from .permgroup import _CHUNK_ROWS, ClassTable, FiniteGroup, word_image
from .reports import CheckResult, ReportDocument
from .subsets import (
    NormalSubset,
    Subset,
    SubsetLike,
    enumerate_normal_subsets,
    random_normal_subset,
    random_subset,
    require_nonempty,
    subset_mask,
)

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


def pair_count(group: FiniteGroup, a: SubsetLike, b: SubsetLike, g: int) -> int:
    """#{(x, y) in A x B : x*y = g}, exact."""
    a_idx = np.flatnonzero(subset_mask(a))
    # x*y = g  <=>  y = x^-1 g
    return int(subset_mask(b)[group.mul(group.inverse_of[a_idx], g)].sum())


def pab_exact(group: FiniteGroup, a: SubsetLike, b: SubsetLike, g: int) -> Fraction:
    """P_{A,B}(g) = pair_count / (|A| |B|) as an exact rational."""
    asize = int(subset_mask(a).sum())
    bsize = int(subset_mask(b).sum())
    require_nonempty(a, "A")
    require_nonempty(b, "B")
    return Fraction(pair_count(group, a, b, g), asize * bsize)


# -- single-instance checks ----------------------------------------------------


def check_2step(
    group: FiniteGroup,
    tab: CharacterTable,
    a: NormalSubset,
    b: SubsetLike,
    inputs: str = "",
) -> CheckResult:
    """Two-step growth: |AB| >= n / (1 + R^2 (n/|B| - 1)) with R = min ratio on A.

    Also checks the weaker closed form |AB| >= min(n/2, |B| / (2 R^2)).
    """
    require_nonempty(a, "A")
    require_nonempty(b, "B")
    n = group.n
    b_size = int(subset_mask(b).sum())
    r_min, _ = r_extremes(tab, a)
    ab = product_set(group, a, b).size
    bound = n / (1.0 + r_min * r_min * (n / b_size - 1.0))
    weak = min(n / 2.0, b_size / (2.0 * r_min * r_min)) if r_min > 0 else n / 2.0
    return CheckResult.bound(
        "2step", group.label, n, inputs or f"A={a.expr()};|B|={b_size}",
        ab, max(bound, weak), tol.SLACK, ">=",
    )


def check_gowers2(
    group: FiniteGroup,
    tab: CharacterTable,
    a: NormalSubset,
    b: NormalSubset,
    k: int,
    inputs: str = "",
) -> CheckResult:
    """Class coverage: |A||B| >= R(g_k)^2 n^2 forces class k inside A*B.

    SKIPPED (not failed) when the precondition does not hold; the margin is
    the precondition's room, negative on a skipped record.
    """
    require_nonempty(a, "A")
    require_nonempty(b, "B")
    if k == 0:
        raise ValueError("k must be a nonidentity class")
    n = group.n
    r = character_ratio(tab, k)
    pre_lhs = a.size * b.size
    pre_rhs = r * r * n * n
    skipped = pre_lhs < pre_rhs
    covered = skipped or bool(product_set(group, a, b).mask[a.ct.classes[k]].all())
    if skipped:
        note = "precondition |A||B| >= R^2 n^2 not met"
    else:
        note = "" if covered else f"class {k} not inside the product set"
    return CheckResult(
        check="gowers2",
        group=group.label,
        n=n,
        inputs=inputs or f"A={a.expr()};B={b.expr()};k={k}",
        lhs=float(pre_lhs),
        rhs=float(pre_rhs),
        margin=float(pre_lhs - pre_rhs),
        passed=covered,
        skipped=skipped,
        note=note,
    )


def check_asymp(
    tab: CharacterTable,
    a: NormalSubset,
    b: NormalSubset,
    inputs: str = "",
) -> list[CheckResult]:
    """Deviation bound |P_AB(g) - 1/n| < R(g)/sqrt(|A||B|), every class g.

    Strict inequality; exact-equality hits are flagged in the note instead of
    failing, and the identity class is included (R = 1 there).
    """
    require_nonempty(a, "A")
    require_nonempty(b, "B")
    group = a.ct.group
    n = group.n
    ratios = np.empty(tab.n_classes)
    ratios[0] = 1.0
    if tab.n_classes > 1:
        ratios[1:] = tab.ratios()[1:]
    scale = 1.0 / math.sqrt(a.size * b.size)
    out = []
    for k in range(tab.n_classes):
        p = pab_exact(group, a, b, int(a.ct.reps[k]))
        lhs = abs(float(p) - 1.0 / n)
        rhs = ratios[k] * scale
        equality = abs(lhs - rhs) <= tol.STRICT_SLACK
        out.append(
            CheckResult.bound(
                "asymp", group.label, n, inputs or f"A={a.expr()};B={b.expr()};k={k}",
                lhs, rhs, tol.STRICT_SLACK, "<",
                note="equality hit" if equality else "",
            )
        )
    return out


def dichotomy_check(
    group: FiniteGroup,
    tab: CharacterTable,
    a: NormalSubset,
    inputs: str = "",
) -> CheckResult:
    """Square dichotomy with R = max nontrivial ratio over the whole group.

    |A| >= R n forces A^2 to cover G minus the identity; otherwise
    |A^2| >= |A| / (2R).
    """
    if a.is_trivial():
        raise TrivialSubset("A must be nonempty and different from {1}")
    n = group.n
    _, r_max = r_extremes(tab, range(1, tab.n_classes))
    a2 = product_set(group, a, a)
    name = inputs or f"A={a.expr()}"
    if a.size >= r_max * n:
        nonid = a2.mask.copy()
        nonid[0] = True  # the identity is allowed to be missing
        covered = bool(nonid.all())
        return CheckResult(
            check="dichotomy",
            group=group.label,
            n=n,
            inputs=name,
            lhs=float(a2.size),
            rhs=float(n - 1),
            margin=float(a2.size - (n - 1)),
            passed=covered,
            note="covering branch |A| >= R n",
        )
    return CheckResult.bound(
        "dichotomy", group.label, n, name, a2.size, a.size / (2.0 * r_max),
        tol.SLACK, ">=", note="growth branch |A| < R n",
    )


# -- reports over families ------------------------------------------------------


def gluck_report(
    group: FiniteGroup, q: Optional[int], tab: CharacterTable
) -> ReportDocument:
    """Max nontrivial character ratio vs. the 19/20 bound for groups of Lie type.

    Reports sqrt(q) * R_max alongside, the scale on which the ratio decays.
    """
    if group.field_order is None:
        raise NotLieType(f"{group.label} was not built with a defining field")
    if q is None:
        q = group.field_order
    if q != group.field_order:
        raise NotLieType(
            f"q={q} does not match the defining field of {group.label}"
        )
    _, r_max = r_extremes(tab, range(1, tab.n_classes))
    rec = CheckResult.bound(
        "gluck", group.label, group.n, f"q={q}", r_max, 19.0 / 20.0, tol.SLACK
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


def square_growth_survey(
    group: FiniteGroup, ct: ClassTable, tab: CharacterTable
) -> ReportDocument:
    """Census of the squaring exponent over unions of nonidentity classes.

    For each nonempty union A of nonidentity classes, records whether A^2
    covers G minus the identity; otherwise records
    eps(A) = log|A^2| / log|A| - 1.  No assertion, report only.
    """
    if not group.simple:
        raise ValueError("square growth survey expects a simple group")
    subsets = _union_sweep(ct, include_identity_class=False, seed=0)
    records = []
    eps_values = []
    for a in subsets:
        a2 = product_set(group, a, a)
        nonid = a2.mask.copy()
        nonid[0] = True
        if nonid.all():
            rhs, note = group.n - 1, "covering"
        else:
            eps = math.log(a2.size) / math.log(a.size) - 1.0
            eps_values.append(eps)
            rhs, note = a.size, f"eps={eps:.6f}"
        records.append(
            CheckResult(
                check="survey",
                group=group.label,
                n=group.n,
                inputs=f"A={a.expr()}",
                lhs=float(a2.size),
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


def pyber_report(
    group: FiniteGroup, ct: ClassTable, tab: CharacterTable
) -> ReportDocument:
    """Census: symmetric normal A with |A| > n/log2(n), does A^2 = G?

    Report only, no assertion.
    """
    if not group.simple:
        raise ValueError("the square census expects a simple group")
    n = group.n
    threshold = n / math.log2(n)
    subsets = _union_sweep(ct, include_identity_class=True, seed=0)
    records = []
    for a in subsets:
        if not a.symmetric or a.size <= threshold:
            continue
        a2 = product_set(group, a, a)
        full = a2.size == n
        records.append(
            CheckResult(
                check="pyber",
                group=group.label,
                n=n,
                inputs=f"A={a.expr()}",
                lhs=float(a2.size),
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


def word_growth_report(
    group: FiniteGroup,
    ct: ClassTable,
    tab: CharacterTable,
    word1: str,
    word2: str,
) -> ReportDocument:
    """Deviation bound applied to two word-map images.

    Word images are normal subsets containing the identity, so for every
    nonidentity class g the scaled deviation |P(g) n - 1| must stay under
    n R(g) / sqrt of the image-size product.
    """
    img1 = NormalSubset.from_subset(ct, word_image(group, word1))
    img2 = NormalSubset.from_subset(ct, word_image(group, word2))
    n = group.n
    scale = n / math.sqrt(img1.size * img2.size)
    records = []
    for k in range(1, ct.n_classes):
        p = pab_exact(group, img1, img2, int(ct.reps[k]))
        lhs = abs(float(p * n - 1))
        rhs = character_ratio(tab, k) * scale
        equality = abs(lhs - rhs) <= tol.STRICT_SLACK
        records.append(
            CheckResult.bound(
                "words", group.label, n, f"w1={word1};w2={word2};k={k}",
                lhs, rhs, tol.STRICT_SLACK, "<",
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
    group: FiniteGroup,
    ct: ClassTable,
    tab: CharacterTable,
    b_per_a: int = 100,
    seed: int = 0,
) -> ReportDocument:
    """Every normal A (exhaustive unions) against seeded random element sets B."""
    rng = np.random.default_rng(seed)
    records = []
    for a in _union_sweep(ct, include_identity_class=True, seed=seed):
        for trial in range(b_per_a):
            b = random_subset(group.n, rng)
            records.append(
                check_2step(
                    group,
                    tab,
                    a,
                    b,
                    inputs=f"A={a.expr()};B=random(seed={seed},trial={trial},|B|={b.size})",
                )
            )
    return ReportDocument(title=f"growth 2step {group.label}", results=records)


def sweep_gowers2(
    group: FiniteGroup,
    ct: ClassTable,
    tab: CharacterTable,
    unions: bool = True,
) -> ReportDocument:
    """All (A, B, k): unions when requested, else single classes."""
    if unions:
        pool = _union_sweep(ct, include_identity_class=True, seed=0)
    else:
        pool = [
            NormalSubset.from_classes(ct, [i]) for i in range(ct.n_classes)
        ]
    records = []
    for a in pool:
        for b in pool:
            for k in range(1, ct.n_classes):
                records.append(check_gowers2(group, tab, a, b, k))
    return ReportDocument(title=f"growth gowers2 {group.label}", results=records)


def sweep_asymp(
    group: FiniteGroup,
    ct: ClassTable,
    tab: CharacterTable,
    pairs: Optional[int] = None,
    seed: int = 0,
) -> ReportDocument:
    """Deviation bound over exhaustive union pairs, or seeded random pairs."""
    records = []
    if pairs is None:
        pool = _union_sweep(ct, include_identity_class=True, seed=seed)
        for a in pool:
            for b in pool:
                records.extend(check_asymp(tab, a, b))
    else:
        rng = np.random.default_rng(seed)
        for trial in range(pairs):
            a = random_normal_subset(ct, rng)
            b = random_normal_subset(ct, rng)
            records.extend(
                check_asymp(
                    tab, a, b, inputs=f"trial={trial};A={a.expr()};B={b.expr()}"
                )
            )
    return ReportDocument(title=f"growth asymp {group.label}", results=records)


def sweep_dichotomy(
    group: FiniteGroup, ct: ClassTable, tab: CharacterTable
) -> ReportDocument:
    """Dichotomy over every nontrivial normal subset (exhaustive unions)."""
    records = []
    for a in _union_sweep(ct, include_identity_class=True, seed=0):
        if a.is_trivial():
            continue
        records.append(dichotomy_check(group, tab, a))
    return ReportDocument(title=f"growth dichotomy {group.label}", results=records)


def frobenius_oracle_report(
    group: FiniteGroup, ct: ClassTable, tab: CharacterTable
) -> ReportDocument:
    """Exact pair counts vs. the character formula over every class triple.

    Each constant of `frobenius_tensor` must round to the count of pairs in
    C_i x C_j with product rep(C_k), which `pair_count` takes from the
    elements, not from the class tensor the table was computed from.
    """
    formula = frobenius_tensor(tab).real
    records = []
    for i, j, kk in np.ndindex(formula.shape):
        a = NormalSubset.from_classes(ct, [i])
        b = NormalSubset.from_classes(ct, [j])
        exact = pair_count(group, a, b, int(ct.reps[kk]))
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
                margin=float(tol.PAB_RELATIVE - rel),
                passed=bool(rounds and rel <= tol.PAB_RELATIVE),
            )
        )
    return ReportDocument(
        title=f"growth frobenius-oracle {group.label}", results=records
    )
