"""Command-line entry point.

Exit codes: 0 every check passed, 1 any check failed or a verification error
surfaced, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .acceptance import acceptance_document, run_acceptance
from .chartable import (
    compute_character_table,
    load_table,
    save_table,
    verify_orthogonality,
)
from .context import PROFILES, get_context, parse_group_spec
from .distributions import sweep_bnp_star, sweep_bnp_two_step, sweep_wlambda
from .errors import NormGrowthError, ParseError, SchemaError
from .growth import (
    gluck_report,
    pyber_report,
    square_growth_survey,
    sweep_2step,
    sweep_asymp,
    sweep_dichotomy,
    sweep_gowers2,
    word_growth_report,
)
from .permgroup import DEFAULT_ORDER_CAP, compute_classes, real_census
from .reports import CheckResult, ReportDocument, write_report
from .spectral import spectral_report
from .subsets import parse_subset_expr
from .tolerances import DEFAULT

OUT_ENV = "NORMGROWTH_OUT"

# command -> check -> (context, parsed args) -> report; without --trials,
# a randomized sweep runs its own default count
CHECKS = {
    "growth": {
        "2step": lambda c, a: sweep_2step(c, trials=a.trials, seed=a.seed),
        "gowers2": lambda c, a: sweep_gowers2(c, unions=not a.classes_only),
        "asymp": lambda c, a: sweep_asymp(c, trials=a.trials, seed=a.seed),
        "dichotomy": lambda c, a: sweep_dichotomy(c),
        "survey": lambda c, a: square_growth_survey(c),
        "pyber": lambda c, a: pyber_report(c),
        "words": lambda c, a: word_growth_report(c, *a.words),
        "gluck": lambda c, a: gluck_report(c),
    },
    "dist": {
        "bnp": lambda c, a: sweep_bnp_star(c, trials=a.trials, seed=a.seed),
        "bnp2step": lambda c, a: sweep_bnp_two_step(c, trials=a.trials, seed=a.seed),
        "wlambda": lambda c, a: sweep_wlambda(c, trials=a.trials, seed=a.seed),
    },
}


def _int_at_least(low: int):
    """An argparse type for integers >= low; anything else is a usage error."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"want an integer >= {low}, got {text}")
        return int(text)
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normgrowth",
        description="Growth and mixing checks on explicit finite groups.",
    )
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_int_at_least(0), default=0, help="base RNG seed")
    common.add_argument(
        "--order-cap",
        type=_int_at_least(1),
        default=DEFAULT_ORDER_CAP,
        help="refuse to enumerate groups larger than this",
    )
    common.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a named tolerance for this command (repeatable)",
    )
    common.add_argument("--out", help="write the report to this path")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )

    grouped = argparse.ArgumentParser(add_help=False, parents=[common])
    grouped.add_argument(
        "--group",
        required=True,
        help='group spec: "S:n", "A:n", "PSL2:q", "PSL3:q", or a generator file',
    )

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("group", parents=[grouped], help="order, classes, real census")

    p = sub.add_parser("chartable", parents=[grouped], help="character-table operations")
    action = p.add_mutually_exclusive_group()
    action.add_argument("--verify", action="store_true", help="recompute and certify")
    action.add_argument("--export", metavar="PATH", help="compute and save as JSON")
    action.add_argument(
        "--import", dest="import_path", metavar="PATH", help="load and certify"
    )

    p = sub.add_parser("lambda", parents=[grouped], help="spectral expansion, both routes")
    p.add_argument(
        "--subset",
        required=True,
        help='"class:i", "classes:i,j", "all-nonid", "complement-real", "word:<w>"',
    )

    p = sub.add_parser("growth", parents=[grouped], help="product-set growth checks")
    p.add_argument("--check", required=True, choices=list(CHECKS["growth"]))
    p.add_argument("--trials", type=_int_at_least(1), help="trial count for randomized sweeps")
    p.add_argument(
        "--words",
        nargs=2,
        default=("xx", "xyXY"),
        metavar=("W1", "W2"),
        help="the two words for --check words",
    )
    p.add_argument(
        "--classes-only",
        action="store_true",
        help="sweep single classes instead of unions (gowers2)",
    )

    p = sub.add_parser("dist", parents=[grouped], help="distribution convolution checks")
    p.add_argument("--check", required=True, choices=list(CHECKS["dist"]))
    p.add_argument("--trials", type=_int_at_least(1), help="trial count")

    p = sub.add_parser("acceptance", parents=[common], help="run the acceptance suite")
    p.add_argument("--profile", choices=sorted(PROFILES), default="quick")

    return parser


def _out_path(args, default_name: str):
    if args.out:
        return args.out
    base = os.environ.get(OUT_ENV)
    if base:
        return os.path.join(base, default_name)
    return None


def _emit(doc: ReportDocument, args, default_stem: str) -> int:
    doc.meta.setdefault("version", __version__)
    doc.meta.setdefault("seed", args.seed)
    if args.overrides:
        doc.meta["tolerances"] = args.overrides
    doc.header["tolerances"] = args.tol.by_name()
    doc.stamp()
    path = _out_path(args, f"{default_stem}.{args.format}")
    if path:
        write_report(doc, path, fmt=args.format)
        print(f"wrote {path}")
    tally = doc.tally()
    for line in doc.summary_lines(tally):
        print(line)
    return tally.exit_code


def _stem(*parts: str) -> str:
    raw = "-".join(p for p in parts if p)
    return raw.replace(":", "").replace("/", "-").lower()


def cmd_group(args) -> int:
    group = parse_group_spec(args.group, order_cap=args.order_cap)
    ct = compute_classes(group)
    census = real_census(ct)
    print(f"{group.label}: order {group.n}, {ct.n_classes} classes")
    print(f"class sizes: {ct.sizes.tolist()}")
    print(f"class orders: {ct.rep_orders.tolist()}")
    print(
        f"real classes: {census.real_classes}/{ct.n_classes}, "
        f"real elements: {census.real_elements}/{group.n}"
    )
    if census.non_real_classes:
        print(f"non-real classes: {list(census.non_real_classes)}")
    if census.coprime_order_classes is not None:
        print(
            f"coprime-order classes: {list(census.coprime_order_classes)}, "
            f"non-real among them: {list(census.non_real_coprime_order_classes)}"
        )
    doc = ReportDocument(title=f"group {group.label}")
    doc.results = [
        CheckResult(
            check="class",
            group=group.label,
            n=group.n,
            inputs=f"class={k};order={int(ct.rep_orders[k])}",
            lhs=float(ct.sizes[k]),
            rhs=float(int(ct.is_real[k])),
            margin=0.0,
            passed=True,
        )
        for k in range(ct.n_classes)
    ]
    doc.meta.update(
        {
            "group": group.label,
            "n": group.n,
            "classes": ct.n_classes,
            "class_sizes": ct.sizes.tolist(),
            "class_orders": ct.rep_orders.tolist(),
            "real_classes": census.real_classes,
            "real_elements": census.real_elements,
        }
    )
    return _emit(doc, args, _stem("group", args.group))


def cmd_chartable(args) -> int:
    ctx_needed = not args.import_path
    if ctx_needed:
        group = parse_group_spec(args.group, order_cap=args.order_cap)
        ct = compute_classes(group)
        tab = compute_character_table(group, ct, args.tol, seed=args.seed)
    if args.import_path:
        tab = load_table(args.import_path, args.tol)
        print(f"loaded table for {tab.label}: order {tab.n}, {tab.n_classes} characters")
    if args.export:
        save_table(tab, args.export)
        print(f"wrote {args.export}")
    residual = verify_orthogonality(tab)
    degrees = sorted(int(round(d)) for d in tab.degrees)
    print(f"{tab.label}: degrees {degrees}")
    print(f"orthogonality residual {residual:.3e}")
    doc = ReportDocument(title=f"chartable {tab.label}")
    budget = args.tol.table_accept if args.import_path else args.tol.orthogonality
    doc.results = [
        CheckResult.bound("orthogonality", tab.label, tab.n, "", residual, budget)
    ]
    doc.meta.update({"group": tab.label, "n": tab.n, "degrees": degrees})
    return _emit(doc, args, _stem("chartable", args.group))


def cmd_lambda(args) -> int:
    ctx = get_context(args.group, order_cap=args.order_cap, seed=args.seed, tol=args.tol)
    subset = parse_subset_expr(args.subset, ctx.group, ctx.classes)
    rep = spectral_report(
        ctx.group,
        ctx.classes,
        ctx.table,
        subset,
        args.subset,
        seed=args.seed,
        tol=ctx.tol,
    )
    print(f"{rep.group_label} S={rep.subset_expr} (d={rep.d}, {rep.method})")
    print(f"lambda_direct = {rep.lambda_direct!r}")
    print(f"lambda_char   = {rep.lambda_char!r}  agree={rep.agree()}")
    doc = ReportDocument(title=f"lambda {rep.group_label} {rep.subset_expr}")
    doc.results = [
        CheckResult.bound(
            "lambda", rep.group_label, rep.n, f"S={rep.subset_expr};d={rep.d}",
            rep.lambda_direct, rep.lambda_char, ctx.tol.lambda_agree, "==",
        )
    ]
    doc.meta.update(
        {
            "group": rep.group_label,
            "n": rep.n,
            "subset": rep.subset_expr,
            "method": rep.method,
            "char_eigenvalues": [[v.real, v.imag] for v in rep.char_eigenvalues],
        }
    )
    # only on the Lanczos route, so dense-route bodies stay as they were
    if rep.method == "lanczos":
        print(f"lanczos: {rep.steps} steps, residual {rep.residual:.3e}")
        doc.meta.update({"lanczos_steps": rep.steps, "lanczos_residual": rep.residual})
    return _emit(doc, args, _stem("lambda", args.group, args.subset))


def cmd_check(args) -> int:
    ctx = get_context(args.group, order_cap=args.order_cap, seed=args.seed, tol=args.tol)
    doc = CHECKS[args.command][args.check](ctx, args)
    return _emit(doc, args, _stem(args.command, args.check, args.group))


def cmd_acceptance(args) -> int:
    outcomes = run_acceptance(profile=args.profile, seed=args.seed, tol=args.tol)
    for oc in outcomes:
        print(oc.line())
    doc = acceptance_document(outcomes, args.profile)
    code = _emit(doc, args, _stem("acceptance", args.profile))
    print(f"acceptance ({args.profile}): {doc.verdict}")
    return code


COMMANDS = {
    "group": cmd_group,
    "chartable": cmd_chartable,
    "lambda": cmd_lambda,
    "growth": cmd_check,
    "dist": cmd_check,
    "acceptance": cmd_acceptance,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        # an override makes a new value for this command only
        args.tol, args.overrides = DEFAULT.with_overrides(args.tolerance)
        return COMMANDS[args.command](args)
    except (ParseError, SchemaError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NormGrowthError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
