"""The one-shot acceptance suite.

Fourteen desk-scale criteria, each exercising one guarantee end to end.
Every criterion returns a ReportDocument whose verdict is PASS only when no
record failed, so the suite runner and the test suite share one code path.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

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
from .spectral import lambda_direct, lambda_normal, mixing_discrepancies
from .subsets import NormalSubset, random_normal_subset, random_subset
from .tolerances import DEFAULT

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


def criterion_1(profile="quick", seed=0, tol=DEFAULT) -> ReportDocument:
    """Both lambda routes agree on every nonidentity class."""
    doc = _doc("criterion-1 lambda equality per class")
    start = time.monotonic()
    rows = []
    for spec in SPECCHI_GROUPS:
        ctx = get_context(spec, tol=tol)
        for k in range(1, ctx.classes.n_classes):
            s = NormalSubset.from_classes(ctx.classes, [k])
            ld = lambda_direct(s, tol, seed=seed)
            ln = lambda_normal(ctx.table, s, tol)
            rows.append(
                CheckResult.bound(
                    "specchi-eq", ctx.label, ctx.n, f"class={k}", ld, ln,
                    tol.lambda_agree, "==",
                )
            )
    elapsed = time.monotonic() - start
    doc.add(rows)
    doc.add(
        CheckResult.bound(
            "specchi-eq-runtime", "(all)", 0, "seconds", elapsed,
            SPECCHI_RUNTIME_LIMIT,
        )
    )
    doc.meta["groups"] = list(SPECCHI_GROUPS)
    return doc


def criterion_2(profile="quick", seed=0, unions=200, tol=DEFAULT) -> ReportDocument:
    """lambda_direct never beats the worst character ratio on the set."""
    doc = _doc("criterion-2 lambda upper bound on random unions")
    rows = []
    for spec in SPECCHI_GROUPS:
        ctx = get_context(spec, tol=tol)
        rng = np.random.default_rng(seed)
        for trial in range(unions):
            s = random_normal_subset(ctx.classes, rng)
            ld = lambda_direct(s, tol, seed=seed)
            _, r_max = r_extremes(ctx.table, s)
            rows.append(
                CheckResult.bound(
                    "specchi-ineq", ctx.label, ctx.n, f"trial={trial};A={s.expr()}",
                    ld, r_max, tol.lambda_agree, seed=seed,
                )
            )
    doc.add(rows)
    return doc


def criterion_3(profile="quick", seed=0, tol=DEFAULT) -> ReportDocument:
    """Two-step growth bound, exhaustive normal A times random B."""
    doc = _doc("criterion-3 two-step growth sweep")
    for spec in ("A:5", "PSL2:7"):
        ctx = get_context(spec, tol=tol)
        doc.add(sweep_2step(ctx, seed=seed))
    return doc


def criterion_4(profile="quick", seed=0, tol=DEFAULT) -> ReportDocument:
    """Class coverage under the degree precondition."""
    doc = _doc("criterion-4 class coverage sweep")
    doc.add(sweep_gowers2(get_context("A:5", tol=tol)))
    for spec in ("PSL2:7", "PSL2:11"):
        doc.add(sweep_gowers2(get_context(spec, tol=tol), unions=False))
    return doc


def criterion_5(profile="quick", seed=0, tol=DEFAULT) -> ReportDocument:
    """Deviation of P_{A,B} from uniform, strict bound."""
    doc = _doc("criterion-5 deviation sweep")
    doc.add(sweep_asymp(get_context("A:5", tol=tol)))
    doc.add(sweep_asymp(get_context("PSL2:7", tol=tol), trials=1000, seed=seed))
    return doc


def criterion_6(profile="quick", seed=0, tol=DEFAULT) -> ReportDocument:
    """Character-formula pair counts round to the brute-force integers."""
    doc = _doc("criterion-6 pair-count oracle")
    worst = 0.0
    for spec in PROFILES[profile]:
        rep = frobenius_oracle_report(get_context(spec, tol=tol))
        doc.add(rep)
        worst = max(worst, max(tol.pab_relative - r.margin for r in rep.results))
    doc.meta["max_relative_deviation"] = worst
    return doc


def criterion_7(profile="quick", seed=0, tol=DEFAULT) -> ReportDocument:
    """Certification of every profile character table."""
    doc = _doc("criterion-7 character-table certification")
    rows = []
    for spec in PROFILES[profile]:
        ctx = get_context(spec, tol=tol)
        residual = verify_orthogonality(ctx.table)
        # the unrounded degrees chi(1); table.degrees is already rounded
        chi1 = ctx.table.values[:, 0].real
        integrality = np.abs(chi1 - np.rint(chi1)).max()
        sq = np.rint(ctx.table.degrees**2).sum()
        rows += [
            CheckResult.bound(
                "orthogonality", ctx.label, ctx.n, "", residual, tol.orthogonality
            ),
            CheckResult.bound(
                "degree-integrality", ctx.label, ctx.n, "", integrality,
                tol.degree_integrality,
            ),
            CheckResult.bound(
                "degree-square-sum", ctx.label, ctx.n, "", sq, ctx.n, op="=="
            ),
        ]
    for spec, expected in EXPECTED_DEGREES.items():
        ctx = get_context(spec, tol=tol)
        got = tuple(sorted(int(round(d)) for d in ctx.table.degrees))
        rows.append(
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
    doc.add(rows)
    return doc


def criterion_8(profile="quick", seed=0, tol=DEFAULT) -> ReportDocument:
    """Max character ratio stays at or under 19/20 on the Lie-type groups."""
    doc = _doc("criterion-8 character-ratio ceiling")
    table = {}
    for spec in GLUCK_GROUPS:
        ctx = get_context(spec, tol=tol)
        rep = gluck_report(ctx)
        doc.add(rep)
        table[ctx.label] = rep.meta["sqrt_q_r_max"]
    doc.meta["sqrt_q_r_max"] = table
    return doc


def criterion_9(profile="quick", seed=0, tol=DEFAULT) -> ReportDocument:
    """Square dichotomy over every nontrivial normal subset."""
    doc = _doc("criterion-9 square dichotomy sweep")
    for spec in ("A:5", "PSL2:7"):
        doc.add(sweep_dichotomy(get_context(spec, tol=tol)))
    return doc


def criterion_10(profile="quick", seed=0, tol=DEFAULT) -> ReportDocument:
    """Convolution contraction, spectral form, and the indicator cross-check."""
    doc = _doc("criterion-10 convolution contraction")
    for spec in MIXING_GROUPS:
        ctx = get_context(spec, tol=tol)
        m = min_nontrivial_degree(ctx.table)
        doc.add(CheckResult.bound("min-degree", ctx.label, ctx.n, "", m, 3, op="=="))
        doc.add(sweep_bnp_star(ctx, seed=seed))
        doc.add(sweep_wlambda(ctx, seed=seed))
        rows = []
        for k in range(ctx.classes.n_classes):
            s = NormalSubset.from_classes(ctx.classes, [k])
            wl = weighted_cayley_lambda(ctx.group, from_subset(s, tol))
            ln = lambda_normal(ctx.table, s, tol)
            rows.append(
                CheckResult.bound(
                    "wlambda-indicator", ctx.label, ctx.n, f"class={k}", wl, ln,
                    tol.wlambda_agree, "==",
                )
            )
        doc.add(rows)
    return doc


def criterion_11(profile="quick", seed=0, tol=DEFAULT) -> ReportDocument:
    """Two-step product bound from the minimal degree, random subsets."""
    doc = _doc("criterion-11 minimal-degree product bound")
    for spec in MIXING_GROUPS:
        doc.add(sweep_bnp_two_step(get_context(spec, tol=tol), seed=seed))
    return doc


def criterion_12(profile="quick", seed=0, tol=DEFAULT) -> ReportDocument:
    """Real-element census: coprime-order classes and the brute-force check."""
    doc = _doc("criterion-12 real census")
    for spec in REAL_PSL2:
        census = real_census(get_context(spec, tol=tol).classes)
        bad = census.non_real_coprime_order_classes
        doc.add(
            CheckResult.bound(
                "real-coprime", census.label, census.n, "", len(bad), 0,
                note=f"non_real_coprime={list(bad)}" if bad else "",
            )
        )
    ctx = get_context("PSL3:3", tol=tol)
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
    doc.add(
        CheckResult.bound(
            "real-brute-force", ctx.label, ctx.n, "all classes", len(mismatches), 0,
            note=f"mismatched={mismatches}" if mismatches else "",
        )
    )
    census = real_census(ct)
    doc.meta["psl33_real_classes"] = census.real_classes
    doc.meta["psl33_real_fraction"] = census.real_element_fraction
    return doc


def criterion_13(profile="quick", seed=0, pairs=500, tol=DEFAULT) -> ReportDocument:
    """Edge-count discrepancy against the spectral bound, per class."""
    doc = _doc("criterion-13 mixing discrepancy")
    rows = []
    for spec in MIXING_GROUPS:
        ctx = get_context(spec, tol=tol)
        # every class is tried on the same seeded pairs
        rng = np.random.default_rng(seed)
        chosen = [(random_subset(ctx.n, rng), random_subset(ctx.n, rng)) for _ in range(pairs)]
        for k in range(ctx.classes.n_classes):
            s = NormalSubset.from_classes(ctx.classes, [k])
            found = mixing_discrepancies(s, chosen, ctx.table, tol)
            rows += [
                CheckResult.bound(
                    "mixing", ctx.label, ctx.n, f"class={k};trial={trial}",
                    lhs, rhs, tol.slack, seed=seed,
                )
                for trial, (lhs, rhs) in enumerate(found)
            ]
    doc.add(rows)
    return doc


def criterion_14(profile="quick", seed=0, tol=DEFAULT) -> ReportDocument:
    """Identical seeds give byte-identical report bodies."""
    doc = _doc("criterion-14 determinism")
    ctx = get_context("A:5", tol=tol)

    def body(rep):
        d = ReportDocument(title="probe", results=rep)
        return json.dumps(d.body_dict(), sort_keys=True)

    probes = {
        "2step": lambda: sweep_2step(ctx, trials=5, seed=seed + 42),
        "bnp": lambda: sweep_bnp_star(ctx, trials=20, seed=seed + 7),
        "asymp": lambda: sweep_asymp(ctx, trials=20, seed=seed + 3),
    }
    for name, run in probes.items():
        first = body(run())
        second = body(run())
        doc.add(
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

    def line(self) -> str:
        tally = self.doc.tally()
        return (
            f"criterion {self.number:2d} [{tally.verdict}] {self.title}: "
            f"{tally.passed} pass, {tally.failed} fail, "
            f"{tally.skipped} skip ({self.elapsed:.1f}s)"
        )


def run_acceptance(profile="quick", seed=0, tol=DEFAULT) -> list[CriterionOutcome]:
    outcomes = []
    for number, title, func in CRITERIA:
        start = time.monotonic()
        doc = func(profile=profile, seed=seed, tol=tol)
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
        doc.add(
            CheckResult.bound(
                f"criterion-{oc.number}", "(suite)", 0, oc.title, oc.doc.tally().failed, 0
            )
        )
    doc.meta["profile"] = profile
    return doc
