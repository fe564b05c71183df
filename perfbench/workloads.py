"""The benchmark's workloads: what each one builds in setup and runs per pass.

Every workload is a closed loop with one caller: each task starts only after
the previous one returned.  A pass returns a list of Task, one per call into
the package, each holding the report documents that call produced.  Inputs
depend only on the workload seed and the size ("full" or "smoke").
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# Modules, not names: the tracer rebinds module attributes, so every call made
# here must look its target up on the module at call time.
from normgrowth import (
    acceptance,
    chartable,
    cli,
    context,
    distributions,
    growth,
    spectral,
    subsets,
    tolerances,
)
from normgrowth.errors import NormGrowthError
from normgrowth.reports import CheckResult, ReportDocument


@dataclass
class Task:
    """One call into the package and what it reported."""

    label: str
    docs: list[ReportDocument] = field(default_factory=list)
    error: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    # (seed, size) -> [(group spec, table seed)] built cold in setup
    groups: Callable[[int, str], list[tuple[str, int]]]
    # (seed, size, scratch dir) -> tasks of one pass
    run: Callable[[int, str, str], list[Task]]


# -- gate-quick ------------------------------------------------------------------

# every group the quick acceptance gate asks get_context for (table seed 0)
GATE_GROUPS = (
    "A:5", "S:5", "PSL2:5", "PSL2:7", "PSL2:9", "PSL2:11", "PSL2:13", "PSL3:2", "PSL3:3",
)
# smoke size: fewer random trials where a criterion takes a trial count
GATE_SMOKE_ARGS = {2: {"unions": 2}, 13: {"pairs": 2}}


def _gate_groups(seed: int, size: str) -> list[tuple[str, int]]:
    return [(spec, 0) for spec in GATE_GROUPS]


@contextlib.contextmanager
def _without_wlambda_sweep():
    """Run criterion 10 without its seeded random `sweep_wlambda`.

    That sweep fails 1-2 of its 200 records at most seeds: when a sparse
    random Y covers the whole group, Y is uniform, the bound is 0, and the
    dense eigensolve returns lambda ~1.6e-8 of rounding noise, above
    tolerances.SLACK.  The defect is the package's; a workload must run
    only operations that succeed, so the sweep is left out here until the
    check is fixed.  The rest of criterion 10 (min-degree, bnp sweep,
    indicator cross-check) runs unchanged.
    """
    inner = acceptance.sweep_wlambda
    acceptance.sweep_wlambda = lambda *args, **kwargs: growth.GrowthReport("wlambda", "")
    try:
        yield
    finally:
        acceptance.sweep_wlambda = inner


def _gate_run(seed: int, size: str, workdir: str) -> list[Task]:
    try:
        with _without_wlambda_sweep():
            if size == "full":
                found = [
                    (oc.number, oc.doc)
                    for oc in acceptance.run_acceptance(profile="quick", seed=seed)
                ]
            else:
                found = [
                    (num, func(profile="quick", seed=seed, **GATE_SMOKE_ARGS.get(num, {})))
                    for num, _, func in acceptance.CRITERIA
                ]
    except NormGrowthError as exc:
        return [Task("run_acceptance", error=f"{type(exc).__name__}: {exc}")]
    return [Task(f"criterion-{num:02d}", [doc]) for num, doc in found]


# -- class-sweeps ----------------------------------------------------------------

SWEEPS_FULL = [
    ["growth", "--check", "asymp", "--group", "PSL2:9"],
    ["growth", "--check", "gowers2", "--group", "PSL3:2"],
    ["growth", "--check", "dichotomy", "--group", "PSL2:11"],
    # survey and pyber square the same unions as dichotomy; on PSL2:7 they keep
    # their code in the pass without tripling dichotomy's product sets
    ["growth", "--check", "survey", "--group", "PSL2:7"],
    ["growth", "--check", "pyber", "--group", "PSL2:7"],
    ["growth", "--check", "words", "--group", "PSL2:11"],
    ["chartable", "--group", "PSL3:3", "--export", "{dir}/table.json"],
    ["chartable", "--group", "PSL3:3", "--import", "{dir}/table.json"],
]
SWEEPS_SMOKE = [
    ["growth", "--check", "asymp", "--group", "A:5", "--trials", "20"],
    ["growth", "--check", "gowers2", "--group", "A:5", "--classes-only"],
    ["growth", "--check", "dichotomy", "--group", "A:5"],
    ["growth", "--check", "survey", "--group", "A:5"],
    ["growth", "--check", "pyber", "--group", "A:5"],
    ["growth", "--check", "words", "--group", "A:5"],
    ["chartable", "--group", "PSL2:7", "--export", "{dir}/table.json"],
    ["chartable", "--group", "PSL2:7", "--import", "{dir}/table.json"],
]


def _sweeps(size: str) -> list[list[str]]:
    return SWEEPS_FULL if size == "full" else SWEEPS_SMOKE


def _sweeps_groups(seed: int, size: str) -> list[tuple[str, int]]:
    specs = [argv[argv.index("--group") + 1] for argv in _sweeps(size) if argv[0] == "growth"]
    return [(spec, seed) for spec in dict.fromkeys(specs)]


def _sweeps_run(seed: int, size: str, workdir: str) -> list[Task]:
    """Each invocation through cli.main; its report is captured as written."""
    written: list[ReportDocument] = []
    inner = cli.write_report

    def capture(doc, path, fmt="json"):
        inner(doc, path, fmt)
        written.append(doc)

    tasks = []
    cli.write_report = capture
    try:
        for i, template in enumerate(_sweeps(size)):
            argv = [a.replace("{dir}", workdir) for a in template]
            argv += ["--seed", str(seed), "--out", os.path.join(workdir, f"report-{i}.json")]
            del written[:]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(argv)
            label = " ".join(a for a in template if "{dir}" not in a)
            error = None
            if code != 0:
                error = f"exit code {code}: {out.getvalue().strip()[-300:]}"
            elif len(written) != 1:
                error = f"expected one report, got {len(written)}"
            tasks.append(Task(label, list(written), error))
    finally:
        cli.write_report = inner
    return tasks


# -- large-order -----------------------------------------------------------------

LARGE_GROUPS = ("PSL3:3", "A:8")
# full size: power iteration on the first PSL3:3 class of each size and element
# order (the others are inverse or Galois conjugates with the same lambda) and
# on the three smallest classes of A:8
PSL33_SPECTRAL_CLASSES = (1, 2, 3, 7, 8, 9, 11)
A8_SPECTRAL_CLASSES = (1, 2, 3)
BNP_PAIRS = 8
# support density of the sparse convolution inputs; keeps the translate route small
BNP_DENSITY = (0.005, 0.03)


def _large_groups(seed: int, size: str) -> list[tuple[str, int]]:
    return [(spec, seed) for spec in LARGE_GROUPS]


def _spectral_record(ctx, k: int, seed: int) -> CheckResult:
    s = subsets.NormalSubset.from_classes(ctx.classes, [k])
    rep = spectral.spectral_report(ctx.group, ctx.classes, ctx.table, s, f"class:{k}", seed=seed)
    diff = abs(rep.lambda_direct - rep.lambda_char)
    return CheckResult(
        check="spectral-agree",
        group=ctx.label,
        n=ctx.n,
        inputs=f"class={k}",
        lhs=float(rep.lambda_direct),
        rhs=float(rep.lambda_char),
        margin=float(tolerances.LAMBDA_AGREE - diff),
        passed=bool(rep.agree()),
        seed=seed,
        note=rep.method,
    )


def _dichotomy_record(ctx, k: int) -> CheckResult:
    s = subsets.NormalSubset.from_classes(ctx.classes, [k])
    return growth.dichotomy_check(ctx.group, ctx.table, s)


def _large_run(seed: int, size: str, workdir: str) -> list[Task]:
    psl33 = context.get_context("PSL3:3", seed=seed)
    a8 = context.get_context("A:8", seed=seed)
    full = size == "full"
    psl_classes = range(1, psl33.classes.n_classes) if full else [1]
    a8_dich_classes = range(1, a8.classes.n_classes) if full else [1]
    psl_spec_classes = PSL33_SPECTRAL_CLASSES if full else [1]
    a8_spec_classes = A8_SPECTRAL_CLASSES if full else [1]
    steps = [
        ("spectral PSL3:3", lambda: [_spectral_record(psl33, k, seed) for k in psl_spec_classes]),
        ("spectral A:8", lambda: [_spectral_record(a8, k, seed) for k in a8_spec_classes]),
        ("dichotomy PSL3:3", lambda: [_dichotomy_record(psl33, k) for k in psl_classes]),
        ("dichotomy A:8", lambda: [_dichotomy_record(a8, k) for k in a8_dich_classes]),
        ("bnp PSL3:3", lambda: _bnp_records(psl33, seed, BNP_PAIRS if full else 1)),
    ]
    tasks = []
    for label, step in steps:
        try:
            records = step()
        except NormGrowthError as exc:
            tasks.append(Task(label, error=f"{type(exc).__name__}: {exc}"))
            continue
        tasks.append(Task(label, [ReportDocument(title=label, results=records)]))
    return tasks


def _bnp_records(ctx, seed: int, pairs: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    m = chartable.min_nontrivial_degree(ctx.table)
    records = []
    for t in range(pairs):
        x = distributions.from_subset(subsets.random_subset(ctx.n, rng, density=rng.uniform(*BNP_DENSITY)))
        y = distributions.from_subset(subsets.random_subset(ctx.n, rng, density=rng.uniform(*BNP_DENSITY)))
        records.append(distributions.check_bnp_star(ctx.group, m, x, y, inputs=f"pair={t};seed={seed}"))
    return records


WORKLOADS = {
    "gate-quick": Workload(_gate_groups, _gate_run),
    "class-sweeps": Workload(_sweeps_groups, _sweeps_run),
    "large-order": Workload(_large_groups, _large_run),
}
