"""The check registry and the acceptance gate built from it.

`CHECKS` names every check: the CLI command that reaches it
(`normgrowth growth|dist --check NAME --group G`) and `run(ctx, options)`,
which returns one ReportDocument for one GroupContext.  The fourteen
criteria of the gate are rows of data, `ROWS`: a number, a title, and
steps (check, group spec, options) run in body order.  A step names a
registry entry, or one of the values the gate expects (`EXPECTED`); four
criteria add a record or meta of their own once their steps are done.  A
criterion is PASS only when no record failed, so the suite runner and the
test suite share one code path.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .chartable import min_nontrivial_degree, r_extremes, verify_orthogonality
from .context import PROFILES, GroupContext, get_context
from .distributions import (
    from_subset,
    sweep_bnp_star,
    sweep_bnp_two_step,
    sweep_wlambda,
    weighted_cayley_lambda,
)
from .errors import NotLieType
from .growth import (
    frobenius_oracle_report,
    gluck_report,
    pyber_report,
    square_growth_survey,
    sweep_2step,
    sweep_asymp,
    sweep_dichotomy,
    sweep_gowers2,
    word_growth_report,
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


# -- checks that hold one route against another ------------------------------------


def _against_characters(ctx, check: str, classes, element_lambda, tol: float) -> list:
    """Per class, a lambda from the elements equals the characters' lambda up to `tol`."""
    rows = []
    for k in classes:
        s = NormalSubset.from_classes(ctx.classes, [k])
        lam = element_lambda(s)
        rows.append(
            CheckResult.bound(
                check, ctx.label, ctx.n, f"class={k}", lam, lambda_normal(ctx.table, s, ctx.tol),
                tol, "==",
            )
        )
    return rows


def specchi_eq_report(ctx: GroupContext, seed: int = 0) -> ReportDocument:
    """Both lambda routes agree on every nonidentity class."""
    rows = _against_characters(
        ctx, "specchi-eq", range(1, ctx.classes.n_classes),
        lambda s: lambda_direct(s, ctx.tol, seed=seed), ctx.tol.lambda_agree,
    )
    return ReportDocument(f"growth specchi-eq {ctx.label}", rows)


def wlambda_indicator_report(ctx: GroupContext) -> ReportDocument:
    """The weighted walk of each class's uniform measure has the class's lambda."""
    rows = _against_characters(
        ctx, "wlambda-indicator", range(ctx.classes.n_classes),
        lambda s: weighted_cayley_lambda(ctx.group, from_subset(s, ctx.tol)), ctx.tol.wlambda_agree,
    )
    return ReportDocument(f"dist wlambda-indicator {ctx.label}", rows)


def specchi_ineq_report(
    ctx: GroupContext, trials: Optional[int] = None, seed: int = 0
) -> ReportDocument:
    """lambda_direct never beats the worst character ratio on `trials` seeded unions, 200 by default."""
    rng = np.random.default_rng(seed)
    rows = []
    for trial in range(200 if trials is None else trials):
        s = random_normal_subset(ctx.classes, rng)
        ld = lambda_direct(s, ctx.tol, seed=seed)
        _, r_max = r_extremes(ctx.table, s)
        rows.append(
            CheckResult.bound(
                "specchi-ineq", ctx.label, ctx.n, f"trial={trial};A={s.expr()}",
                ld, r_max, ctx.tol.lambda_agree, seed=seed,
            )
        )
    return ReportDocument(f"growth specchi-ineq {ctx.label}", rows)


def table_cert_report(ctx: GroupContext) -> ReportDocument:
    """The table's orthogonality residual, integral degrees, and squared degrees summing to n."""
    tol, tab = ctx.tol, ctx.table
    # the unrounded degrees chi(1); table.degrees is already rounded
    chi1 = tab.values[:, 0].real
    integrality = np.abs(chi1 - np.rint(chi1)).max()
    sq = np.rint(tab.degrees**2).sum()
    return ReportDocument(f"growth table-cert {ctx.label}", [
        CheckResult.bound(
            "orthogonality", ctx.label, ctx.n, "", verify_orthogonality(tab), tol.orthogonality
        ),
        CheckResult.bound(
            "degree-integrality", ctx.label, ctx.n, "", integrality, tol.degree_integrality
        ),
        CheckResult.bound("degree-square-sum", ctx.label, ctx.n, "", sq, ctx.n, op="=="),
    ])


def real_coprime_report(ctx: GroupContext) -> ReportDocument:
    """Every class of order coprime to the defining characteristic is real."""
    bad = real_census(ctx.classes).non_real_coprime_order_classes
    if bad is None:
        raise NotLieType(f"{ctx.label} was not built with a defining field")
    note = f"non_real_coprime={list(bad)}" if bad else ""
    rec = CheckResult.bound("real-coprime", ctx.label, ctx.n, "", len(bad), 0, note=note)
    return ReportDocument(f"growth real-coprime {ctx.label}", [rec])


def real_brute_force_report(ctx: GroupContext) -> ReportDocument:
    """Each class's real flag against its representative's inverse sought in its orbit."""
    group, ct = ctx.group, ctx.classes
    all_idx = np.arange(group.n)
    mismatches = []
    for k in range(ct.n_classes):
        r = int(ct.reps[k])
        # h r h^-1 for every h
        orbit = group.mul(group.mul(all_idx, r), group.inverse_of)
        if bool(np.isin(group.inverse_of[r], orbit)) != bool(ct.is_real[k]):
            mismatches.append(k)
    note = f"mismatched={mismatches}" if mismatches else ""
    rec = CheckResult.bound(
        "real-brute-force", ctx.label, ctx.n, "all classes", len(mismatches), 0, note=note
    )
    return ReportDocument(f"growth real-brute-force {ctx.label}", [rec])


def mixing_report(
    ctx: GroupContext, trials: Optional[int] = None, seed: int = 0
) -> ReportDocument:
    """Edge-count discrepancy against the spectral bound, per class.

    Every class is tried on the same `trials` seeded (A, B) pairs, 500 by
    default, drawn once.
    """
    rng = np.random.default_rng(seed)
    count = 500 if trials is None else trials
    chosen = [(random_subset(ctx.n, rng), random_subset(ctx.n, rng)) for _ in range(count)]
    rows = []
    for k in range(ctx.classes.n_classes):
        s = NormalSubset.from_classes(ctx.classes, [k])
        found = mixing_discrepancies(s, chosen, ctx.table, ctx.tol)
        rows += [
            CheckResult.bound(
                "mixing", ctx.label, ctx.n, f"class={k};trial={trial}",
                lhs, rhs, ctx.tol.slack, seed=seed,
            )
            for trial, (lhs, rhs) in enumerate(found)
        ]
    return ReportDocument(f"growth mixing {ctx.label}", rows)


def determinism_report(ctx: GroupContext, seed: int = 0) -> ReportDocument:
    """Three seeded sweeps, each run twice, give byte-identical report bodies."""
    probes = {
        "2step": lambda: sweep_2step(ctx, trials=5, seed=seed + 42),
        "bnp": lambda: sweep_bnp_star(ctx, trials=20, seed=seed + 7),
        "asymp": lambda: sweep_asymp(ctx, trials=20, seed=seed + 3),
    }
    rows = []
    for name, run in probes.items():
        first, second = (
            json.dumps(ReportDocument("probe", run()).body_dict(), sort_keys=True) for _ in range(2)
        )
        rows.append(
            CheckResult(
                "determinism", ctx.label, ctx.n, name, float(len(first)), float(len(second)),
                0.0, first == second,
            )
        )
    return ReportDocument(f"growth determinism {ctx.label}", rows)


# -- the registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Options:
    """What a check reads besides its group: CLI flags, or a gate step's settings.

    Without `trials`, a randomized check runs its own default count.
    """

    seed: int = 0
    trials: Optional[int] = None
    classes_only: bool = False
    words: tuple = ("xx", "xyXY")


class Check(NamedTuple):
    """A check's CLI command, its run, and the `Options` fields the run reads.

    `reads` leaves out `seed`: every context reads it, for its table recovery.
    """

    command: str
    run: Callable[[GroupContext, Options], ReportDocument]
    reads: tuple = ()


# each run looks its check up on this module when called, so a rebinding of
# a check here reaches the CLI and the gate alike
CHECKS = {
    "2step": Check("growth", lambda c, o: sweep_2step(c, trials=o.trials, seed=o.seed), ("trials",)),
    "gowers2": Check("growth", lambda c, o: sweep_gowers2(c, unions=not o.classes_only), ("classes_only",)),
    "asymp": Check("growth", lambda c, o: sweep_asymp(c, trials=o.trials, seed=o.seed), ("trials",)),
    "dichotomy": Check("growth", lambda c, o: sweep_dichotomy(c)),
    "survey": Check("growth", lambda c, o: square_growth_survey(c)),
    "pyber": Check("growth", lambda c, o: pyber_report(c)),
    "words": Check("growth", lambda c, o: word_growth_report(c, *o.words), ("words",)),
    "gluck": Check("growth", lambda c, o: gluck_report(c)),
    "bnp": Check("dist", lambda c, o: sweep_bnp_star(c, trials=o.trials, seed=o.seed), ("trials",)),
    "bnp2step": Check("dist", lambda c, o: sweep_bnp_two_step(c, trials=o.trials, seed=o.seed), ("trials",)),
    "wlambda": Check("dist", lambda c, o: sweep_wlambda(c, trials=o.trials, seed=o.seed), ("trials",)),
    "specchi-eq": Check("growth", lambda c, o: specchi_eq_report(c, seed=o.seed)),
    "specchi-ineq": Check("growth", lambda c, o: specchi_ineq_report(c, trials=o.trials, seed=o.seed), ("trials",)),
    "frobenius-oracle": Check("growth", lambda c, o: frobenius_oracle_report(c)),
    "table-cert": Check("growth", lambda c, o: table_cert_report(c)),
    "wlambda-indicator": Check("dist", lambda c, o: wlambda_indicator_report(c)),
    "real-coprime": Check("growth", lambda c, o: real_coprime_report(c)),
    "real-brute-force": Check("growth", lambda c, o: real_brute_force_report(c)),
    "mixing": Check("growth", lambda c, o: mixing_report(c, trials=o.trials, seed=o.seed), ("trials",)),
    "determinism": Check("growth", lambda c, o: determinism_report(c, seed=o.seed)),
}


def check_names(command: str) -> list[str]:
    """The registry's checks under one CLI command, in registry order."""
    return [name for name, check in CHECKS.items() if check.command == command]


# -- the gate --------------------------------------------------------------------


def _degree_multiset(ctx: GroupContext, expected: tuple) -> CheckResult:
    got = tuple(sorted(int(round(d)) for d in ctx.table.degrees))
    return CheckResult(
        "degree-multiset", ctx.label, ctx.n, f"expected={expected}", float(len(got)),
        float(len(expected)), 0.0, got == tuple(sorted(expected)), note=f"got={got}",
    )


def _min_degree(ctx: GroupContext, expected: int) -> CheckResult:
    m = min_nontrivial_degree(ctx.table)
    return CheckResult.bound("min-degree", ctx.label, ctx.n, "", m, expected, op="==")


# steps that hold a group to a value the gate expects; not checks of the registry
EXPECTED = {"degree-multiset": _degree_multiset, "min-degree": _min_degree}

# the group spec of a step that runs on each group of the gate's profile in turn
PROFILE = "*"


# what a criterion adds once its steps are done: (doc, [(check, ctx, report)], seconds)
def _specchi_runtime(doc, runs, elapsed) -> None:
    doc.add(CheckResult.bound("specchi-eq-runtime", "(all)", 0, "seconds", elapsed, SPECCHI_RUNTIME_LIMIT))
    doc.meta["groups"] = list(SPECCHI_GROUPS)


def _max_relative_deviation(doc, runs, elapsed) -> None:
    deviations = [ctx.tol.pab_relative - r.margin for _, ctx, rep in runs for r in rep.results]
    doc.meta["max_relative_deviation"] = max([0.0] + deviations)


def _sqrt_q_r_max(doc, runs, elapsed) -> None:
    doc.meta["sqrt_q_r_max"] = {ctx.label: rep.meta["sqrt_q_r_max"] for _, ctx, rep in runs}


def _psl33_census(doc, runs, elapsed) -> None:
    # the last step is the brute force on PSL3:3
    census = real_census(runs[-1][1].classes)
    doc.meta["psl33_real_classes"] = census.real_classes
    doc.meta["psl33_real_fraction"] = census.real_element_fraction


def _each(check: str, specs: tuple, **options) -> tuple:
    return tuple((check, spec, options) for spec in specs)


class Criterion(NamedTuple):
    number: int
    title: str
    steps: tuple
    # the criterion's keyword for the trial count of its steps
    count: Optional[str] = None
    finish: Optional[Callable] = None


ROWS = (
    Criterion(1, "lambda equality per class", _each("specchi-eq", SPECCHI_GROUPS),
              finish=_specchi_runtime),
    Criterion(2, "lambda upper bound on random unions", _each("specchi-ineq", SPECCHI_GROUPS),
              count="unions"),
    Criterion(3, "two-step growth sweep", _each("2step", ("A:5", "PSL2:7"))),
    Criterion(4, "class coverage sweep", _each("gowers2", ("A:5",))
              + _each("gowers2", ("PSL2:7", "PSL2:11"), classes_only=True)),
    Criterion(5, "deviation sweep", _each("asymp", ("A:5",)) + _each("asymp", ("PSL2:7",), trials=1000)),
    Criterion(6, "pair-count oracle", _each("frobenius-oracle", (PROFILE,)),
              finish=_max_relative_deviation),
    Criterion(7, "character-table certification", _each("table-cert", (PROFILE,)) + tuple(
        ("degree-multiset", spec, {"expected": degrees}) for spec, degrees in EXPECTED_DEGREES.items()
    )),
    Criterion(8, "character-ratio ceiling", _each("gluck", GLUCK_GROUPS), finish=_sqrt_q_r_max),
    Criterion(9, "square dichotomy sweep", _each("dichotomy", ("A:5", "PSL2:7"))),
    Criterion(10, "convolution contraction", tuple(
        step
        for spec in MIXING_GROUPS
        for step in [("min-degree", spec, {"expected": 3})]
        + [(check, spec, {}) for check in ("bnp", "wlambda", "wlambda-indicator")]
    )),
    Criterion(11, "minimal-degree product bound", _each("bnp2step", MIXING_GROUPS)),
    Criterion(12, "real census", _each("real-coprime", REAL_PSL2)
              + _each("real-brute-force", ("PSL3:3",)), finish=_psl33_census),
    Criterion(13, "mixing discrepancy", _each("mixing", MIXING_GROUPS), count="pairs"),
    Criterion(14, "determinism", _each("determinism", ("A:5",))),
)


def run_steps(row: Criterion, profile="quick", seed=0, tol=DEFAULT, trials=None):
    """(check, ctx, report) of each step of a criterion, in body order."""
    for check, spec, options in row.steps:
        for each in PROFILES[profile] if spec == PROFILE else (spec,):
            ctx = get_context(each, tol=tol)
            if check in EXPECTED:
                yield check, ctx, EXPECTED[check](ctx, **options)
            else:
                settings = Options(**{"seed": seed, "trials": trials, **options})
                yield check, ctx, CHECKS[check].run(ctx, settings)


def _criterion(row: Criterion) -> Callable[..., ReportDocument]:
    def criterion(profile="quick", seed=0, tol=DEFAULT, **count) -> ReportDocument:
        trials = count.pop(row.count, None)
        if count:
            raise TypeError(f"criterion {row.number} takes no {', '.join(count)}")
        doc = ReportDocument(f"criterion-{row.number} {row.title}")
        start = time.monotonic()
        runs = list(run_steps(row, profile, seed, tol, trials))
        for _, _, rep in runs:
            doc.add(rep)
        if row.finish is not None:
            row.finish(doc, runs, time.monotonic() - start)
        return doc

    criterion.__name__ = f"criterion_{row.number}"
    criterion.__doc__ = f"Criterion {row.number}, {row.title}: its steps in body order."
    return criterion


CRITERIA = [(row.number, row.title, _criterion(row)) for row in ROWS]
# a benchmark's tracer finds each criterion by its module-level name
globals().update({func.__name__: func for _, _, func in CRITERIA})


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
        outcomes.append(CriterionOutcome(number, title, doc, time.monotonic() - start))
    return outcomes
