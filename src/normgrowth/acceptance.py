"""The one-shot acceptance suite.

Fourteen desk-scale criteria, each exercising one guarantee end to end.
Every criterion returns a ReportDocument whose verdict is PASS only when no
record failed, so the suite runner and the test suite share one code path.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .chartable import min_nontrivial_degree, r_extremes, verify_orthogonality
from .context import PROFILES, get_context
from .distributions import (
    from_subset,
    sweep_bnp_star,
    sweep_bnp_two_step,
    sweep_wlambda,
    weighted_cayley_lambda,
)
from .growth import (
    frobenius_oracle_report,
    gluck_report,
    sweep_2step,
    sweep_asymp,
    sweep_dichotomy,
    sweep_gowers2,
)
from .permgroup import real_census
from .reports import CheckResult, ReportDocument
from .spectral import lambda_direct, lambda_normal, make_cayley, mixing_discrepancy
from .subsets import NormalSubset, random_normal_subset, random_subset

SPECCHI_GROUPS = ("A:5", "S:5", "PSL2:7", "PSL2:11")
MIXING_GROUPS = ("A:5", "PSL2:7")
GLUCK_GROUPS = ("PSL2:5", "PSL2:7", "PSL2:9", "PSL2:11", "PSL2:13", "PSL3:2")
REAL_PSL2 = ("PSL2:5", "PSL2:7", "PSL2:9", "PSL2:11", "PSL2:13")
SPECCHI_RUNTIME_LIMIT = 300.0

EXPECTED_DEGREES = {
    "A:5": (1, 3, 3, 4, 5),
    "PSL2:7": (1, 3, 3, 6, 7, 8),
}


def _doc(title: str) -> ReportDocument:
    return ReportDocument(title=title)


def criterion_1(profile: str = "quick", seed: int = 0) -> ReportDocument:
    """Both lambda routes agree on every nonidentity class."""
    doc = _doc("criterion-1 lambda equality per class")
    start = time.monotonic()
    for spec in SPECCHI_GROUPS:
        ctx = get_context(spec)
        for k in range(1, ctx.classes.n_classes):
            s = NormalSubset.from_classes(ctx.classes, [k])
            ld = lambda_direct(make_cayley(ctx.group, s, ctx.classes), seed=seed)
            ln = lambda_normal(ctx.table, s)
            diff = abs(ld - ln)
            doc.results.append(
                CheckResult(
                    check="specchi-eq",
                    group=ctx.label,
                    n=ctx.n,
                    inputs=f"class={k}",
                    lhs=ld,
                    rhs=ln,
                    margin=float(tol.LAMBDA_AGREE - diff),
                    passed=bool(diff <= tol.LAMBDA_AGREE),
                )
            )
    elapsed = time.monotonic() - start
    doc.results.append(
        CheckResult(
            check="specchi-eq-runtime",
            group="(all)",
            n=0,
            inputs="seconds",
            lhs=elapsed,
            rhs=SPECCHI_RUNTIME_LIMIT,
            margin=float(SPECCHI_RUNTIME_LIMIT - elapsed),
            passed=bool(elapsed <= SPECCHI_RUNTIME_LIMIT),
        )
    )
    doc.meta["groups"] = list(SPECCHI_GROUPS)
    return doc


def criterion_2(profile: str = "quick", seed: int = 0, unions: int = 200) -> ReportDocument:
    """lambda_direct never beats the worst character ratio on the set."""
    doc = _doc("criterion-2 lambda upper bound on random unions")
    for spec in SPECCHI_GROUPS:
        ctx = get_context(spec)
        rng = np.random.default_rng(seed)
        for trial in range(unions):
            s = random_normal_subset(ctx.classes, rng)
            ld = lambda_direct(make_cayley(ctx.group, s, ctx.classes), seed=seed)
            _, r_max = r_extremes(ctx.table, s)
            doc.results.append(
                CheckResult(
                    check="specchi-ineq",
                    group=ctx.label,
                    n=ctx.n,
                    inputs=f"trial={trial};A={s.expr()}",
                    lhs=ld,
                    rhs=float(r_max),
                    margin=float(r_max + tol.LAMBDA_AGREE - ld),
                    passed=bool(ld <= r_max + tol.LAMBDA_AGREE),
                    seed=seed,
                )
            )
    return doc


def criterion_3(profile: str = "quick", seed: int = 0) -> ReportDocument:
    """Two-step growth bound, exhaustive normal A times random B."""
    doc = _doc("criterion-3 two-step growth sweep")
    for spec in ("A:5", "PSL2:7"):
        ctx = get_context(spec)
        rep = sweep_2step(ctx.group, ctx.classes, ctx.table, b_per_a=100, seed=seed)
        doc.results.extend(rep.results)
    return doc


def criterion_4(profile: str = "quick", seed: int = 0) -> ReportDocument:
    """Class coverage under the degree precondition."""
    doc = _doc("criterion-4 class coverage sweep")
    ctx = get_context("A:5")
    doc.results.extend(
        sweep_gowers2(ctx.group, ctx.classes, ctx.table, unions=True).results
    )
    for spec in ("PSL2:7", "PSL2:11"):
        ctx = get_context(spec)
        doc.results.extend(
            sweep_gowers2(ctx.group, ctx.classes, ctx.table, unions=False).results
        )
    return doc


def criterion_5(profile: str = "quick", seed: int = 0) -> ReportDocument:
    """Deviation of P_{A,B} from uniform, strict bound."""
    doc = _doc("criterion-5 deviation sweep")
    ctx = get_context("A:5")
    doc.results.extend(sweep_asymp(ctx.group, ctx.classes, ctx.table).results)
    ctx = get_context("PSL2:7")
    doc.results.extend(
        sweep_asymp(ctx.group, ctx.classes, ctx.table, pairs=1000, seed=seed).results
    )
    return doc


def criterion_6(profile: str = "quick", seed: int = 0) -> ReportDocument:
    """Character-formula pair counts round to the brute-force integers."""
    doc = _doc("criterion-6 pair-count oracle")
    worst = 0.0
    for spec in PROFILES[profile]:
        ctx = get_context(spec)
        rep = frobenius_oracle_report(ctx.group, ctx.classes, ctx.table)
        doc.results.extend(rep.results)
        worst = max(worst, max(tol.PAB_RELATIVE - r.margin for r in rep.results))
    doc.meta["max_relative_deviation"] = worst
    return doc


def criterion_7(profile: str = "quick", seed: int = 0) -> ReportDocument:
    """Certification of every profile character table."""
    doc = _doc("criterion-7 character-table certification")
    for spec in PROFILES[profile]:
        ctx = get_context(spec)
        residual = verify_orthogonality(ctx.table)
        doc.results.append(
            CheckResult(
                check="orthogonality",
                group=ctx.label,
                n=ctx.n,
                inputs="",
                lhs=float(residual),
                rhs=tol.ORTHOGONALITY,
                margin=float(tol.ORTHOGONALITY - residual),
                passed=bool(residual <= tol.ORTHOGONALITY),
            )
        )
        # the unrounded degrees chi(1); table.degrees is already rounded
        chi1 = ctx.table.values[:, 0].real
        integrality = float(np.abs(chi1 - np.rint(chi1)).max())
        doc.results.append(
            CheckResult(
                check="degree-integrality",
                group=ctx.label,
                n=ctx.n,
                inputs="",
                lhs=integrality,
                rhs=tol.DEGREE_INTEGRALITY,
                margin=float(tol.DEGREE_INTEGRALITY - integrality),
                passed=bool(integrality <= tol.DEGREE_INTEGRALITY),
            )
        )
        sq = int(np.rint(ctx.table.degrees**2).sum())
        doc.results.append(
            CheckResult(
                check="degree-square-sum",
                group=ctx.label,
                n=ctx.n,
                inputs="",
                lhs=float(sq),
                rhs=float(ctx.n),
                margin=float(ctx.n - sq),
                passed=bool(sq == ctx.n),
            )
        )
    for spec, expected in EXPECTED_DEGREES.items():
        ctx = get_context(spec)
        got = tuple(sorted(int(round(d)) for d in ctx.table.degrees))
        doc.results.append(
            CheckResult(
                check="degree-multiset",
                group=ctx.label,
                n=ctx.n,
                inputs=f"expected={expected}",
                lhs=float(len(got)),
                rhs=float(len(expected)),
                margin=0.0,
                passed=bool(got == tuple(sorted(expected))),
                note=f"got={got}",
            )
        )
    return doc


def criterion_8(profile: str = "quick", seed: int = 0) -> ReportDocument:
    """Max character ratio stays at or under 19/20 on the Lie-type groups."""
    doc = _doc("criterion-8 character-ratio ceiling")
    table = {}
    for spec in GLUCK_GROUPS:
        ctx = get_context(spec)
        rep = gluck_report(ctx.group, None, ctx.table)
        doc.results.extend(rep.results)
        table[ctx.label] = rep.meta["sqrt_q_r_max"]
    doc.meta["sqrt_q_r_max"] = table
    return doc


def criterion_9(profile: str = "quick", seed: int = 0) -> ReportDocument:
    """Square dichotomy over every nontrivial normal subset."""
    doc = _doc("criterion-9 square dichotomy sweep")
    for spec in ("A:5", "PSL2:7"):
        ctx = get_context(spec)
        doc.results.extend(sweep_dichotomy(ctx.group, ctx.classes, ctx.table).results)
    return doc


def criterion_10(profile: str = "quick", seed: int = 0) -> ReportDocument:
    """Convolution contraction, spectral form, and the indicator cross-check."""
    doc = _doc("criterion-10 convolution contraction")
    for spec in MIXING_GROUPS:
        ctx = get_context(spec)
        m = min_nontrivial_degree(ctx.table)
        doc.results.append(
            CheckResult(
                check="min-degree",
                group=ctx.label,
                n=ctx.n,
                inputs="",
                lhs=float(m),
                rhs=3.0,
                margin=0.0,
                passed=bool(m == 3),
            )
        )
        doc.results.extend(
            sweep_bnp_star(ctx.group, ctx.table, trials=1000, seed=seed).results
        )
        doc.results.extend(
            sweep_wlambda(
                ctx.group, ctx.classes, ctx.table, trials=100, seed=seed
            ).results
        )
        for k in range(ctx.classes.n_classes):
            s = NormalSubset.from_classes(ctx.classes, [k])
            wl = weighted_cayley_lambda(ctx.group, from_subset(s))
            ln = lambda_normal(ctx.table, s)
            diff = abs(wl - ln)
            doc.results.append(
                CheckResult(
                    check="wlambda-indicator",
                    group=ctx.label,
                    n=ctx.n,
                    inputs=f"class={k}",
                    lhs=wl,
                    rhs=ln,
                    margin=float(tol.WLAMBDA_AGREE - diff),
                    passed=bool(diff <= tol.WLAMBDA_AGREE),
                )
            )
    return doc


def criterion_11(profile: str = "quick", seed: int = 0) -> ReportDocument:
    """Two-step product bound from the minimal degree, random subsets."""
    doc = _doc("criterion-11 minimal-degree product bound")
    for spec in MIXING_GROUPS:
        ctx = get_context(spec)
        doc.results.extend(
            sweep_bnp_two_step(ctx.group, ctx.table, pairs=500, seed=seed).results
        )
    return doc


def criterion_12(profile: str = "quick", seed: int = 0) -> ReportDocument:
    """Real-element census: coprime-order classes and the brute-force check."""
    doc = _doc("criterion-12 real census")
    for spec in REAL_PSL2:
        ctx = get_context(spec)
        census = real_census(ctx.group, ctx.classes, include_coprime_order=True)
        bad = census.non_real_coprime_order_classes
        doc.results.append(
            CheckResult(
                check="real-coprime",
                group=ctx.label,
                n=ctx.n,
                inputs="",
                lhs=float(len(bad)),
                rhs=0.0,
                margin=float(-len(bad)),
                passed=bool(not bad),
                note=f"non_real_coprime={list(bad)}" if bad else "",
            )
        )
    ctx = get_context("PSL3:3")
    group, ct = ctx.group, ctx.classes
    all_idx = np.arange(group.n)
    mismatches = []
    for k in range(ct.n_classes):
        r = int(ct.reps[k])
        # h r h^-1 for every h
        orbit = group.mul(group.mul(all_idx, r), group.inverse_of)
        real = bool(np.isin(group.inverse_of[r], orbit))
        if real != bool(ct.is_real[k]):
            mismatches.append(k)
    doc.results.append(
        CheckResult(
            check="real-brute-force",
            group=ctx.label,
            n=ctx.n,
            inputs="all classes",
            lhs=float(len(mismatches)),
            rhs=0.0,
            margin=float(-len(mismatches)),
            passed=bool(not mismatches),
            note=f"mismatched={mismatches}" if mismatches else "",
        )
    )
    census = real_census(group, ct)
    doc.meta["psl33_real_classes"] = census.real_classes
    doc.meta["psl33_real_fraction"] = census.real_element_fraction
    return doc


def criterion_13(profile: str = "quick", seed: int = 0, pairs: int = 500) -> ReportDocument:
    """Edge-count discrepancy against the spectral bound, per class."""
    doc = _doc("criterion-13 mixing discrepancy")
    for spec in MIXING_GROUPS:
        ctx = get_context(spec)
        for k in range(ctx.classes.n_classes):
            s = NormalSubset.from_classes(ctx.classes, [k])
            cay = make_cayley(ctx.group, s, ctx.classes)
            rng = np.random.default_rng(seed)
            for trial in range(pairs):
                a = random_subset(ctx.n, rng)
                b = random_subset(ctx.n, rng)
                lhs, rhs = mixing_discrepancy(cay, a, b, ctx.table)
                doc.results.append(
                    CheckResult(
                        check="mixing",
                        group=ctx.label,
                        n=ctx.n,
                        inputs=f"class={k};trial={trial}",
                        lhs=lhs,
                        rhs=rhs,
                        margin=float(rhs + tol.SLACK - lhs),
                        passed=bool(lhs <= rhs + tol.SLACK),
                        seed=seed,
                    )
                )
    return doc


def criterion_14(profile: str = "quick", seed: int = 0) -> ReportDocument:
    """Identical seeds give byte-identical report bodies."""
    doc = _doc("criterion-14 determinism")
    ctx = get_context("A:5")

    def body(rep):
        d = ReportDocument(title="probe", results=rep.results)
        return json.dumps(d.body_dict(), sort_keys=True)

    probes = {
        "2step": lambda: sweep_2step(
            ctx.group, ctx.classes, ctx.table, b_per_a=5, seed=seed + 42
        ),
        "bnp": lambda: sweep_bnp_star(ctx.group, ctx.table, trials=20, seed=seed + 7),
        "asymp": lambda: sweep_asymp(
            ctx.group, ctx.classes, ctx.table, pairs=20, seed=seed + 3
        ),
    }
    for name, run in probes.items():
        first = body(run())
        second = body(run())
        doc.results.append(
            CheckResult(
                check="determinism",
                group=ctx.label,
                n=ctx.n,
                inputs=name,
                lhs=float(len(first)),
                rhs=float(len(second)),
                margin=0.0,
                passed=bool(first == second),
            )
        )
    return doc


CRITERIA = [
    (1, "lambda equality per class", criterion_1),
    (2, "lambda upper bound on random unions", criterion_2),
    (3, "two-step growth sweep", criterion_3),
    (4, "class coverage sweep", criterion_4),
    (5, "deviation sweep", criterion_5),
    (6, "pair-count oracle", criterion_6),
    (7, "character-table certification", criterion_7),
    (8, "character-ratio ceiling", criterion_8),
    (9, "square dichotomy sweep", criterion_9),
    (10, "convolution contraction", criterion_10),
    (11, "minimal-degree product bound", criterion_11),
    (12, "real census", criterion_12),
    (13, "mixing discrepancy", criterion_13),
    (14, "determinism", criterion_14),
]


@dataclass
class CriterionOutcome:
    number: int
    title: str
    doc: ReportDocument
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.doc.fail_count == 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.number:2d} [{status}] {self.title}: "
            f"{self.doc.pass_count} pass, {self.doc.fail_count} fail, "
            f"{self.doc.skip_count} skip ({self.elapsed:.1f}s)"
        )


def run_acceptance(profile: str = "quick", seed: int = 0) -> list[CriterionOutcome]:
    outcomes = []
    for number, title, func in CRITERIA:
        start = time.monotonic()
        doc = func(profile=profile, seed=seed)
        outcomes.append(
            CriterionOutcome(
                number=number,
                title=title,
                doc=doc,
                elapsed=time.monotonic() - start,
            )
        )
    return outcomes


def acceptance_document(outcomes: list[CriterionOutcome], profile: str) -> ReportDocument:
    doc = ReportDocument(title=f"acceptance ({profile})")
    for oc in outcomes:
        doc.results.append(
            CheckResult(
                check=f"criterion-{oc.number}",
                group="(suite)",
                n=0,
                inputs=oc.title,
                lhs=float(oc.doc.fail_count),
                rhs=0.0,
                margin=float(-oc.doc.fail_count),
                passed=oc.passed,
            )
        )
    doc.meta["profile"] = profile
    return doc
