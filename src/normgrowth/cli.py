"""Command-line entry point.

Exit codes: 0 every check passed, 1 any check failed or a verification error
surfaced, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from . import tolerances as tol
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
from .spectral import DEFAULT_DENSE_CAP, spectral_report
from .subsets import parse_subset_expr

OUT_ENV = "NORMGROWTH_OUT"

GROWTH_CHECKS = (
    "2step",
    "gowers2",
    "asymp",
    "dichotomy",
    "survey",
    "pyber",
    "words",
    "gluck",
)
DIST_CHECKS = ("bnp", "bnp2step", "wlambda")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normgrowth",
        description="Growth and mixing checks on explicit finite groups.",
    )
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base RNG seed")
    common.add_argument(
        "--order-cap",
        type=int,
        default=DEFAULT_ORDER_CAP,
        help="refuse to enumerate groups larger than this",
    )
    common.add_argument(
        "--dense-cap",
        type=int,
        default=DEFAULT_DENSE_CAP,
        help="largest order handled by dense eigensolvers",
    )
    common.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a named tolerance (repeatable)",
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
    p.add_argument("--check", required=True, choices=GROWTH_CHECKS)
    p.add_argument("--trials", type=int, help="trial count for randomized sweeps")
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
    p.add_argument("--check", required=True, choices=DIST_CHECKS)
    p.add_argument("--trials", type=int, help="trial count")

    p = sub.add_parser("acceptance", parents=[common], help="run the acceptance suite")
    p.add_argument("--profile", choices=sorted(PROFILES), default="quick")

    return parser


def _apply_tolerances(pairs: list[str]) -> dict[str, float]:
    """Set each NAME=VALUE on the tolerances module; return the overrides."""
    applied = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep:
            raise ParseError(f"--tolerance wants NAME=VALUE, got {item!r}")
        name = name.strip()
        attr = tol.NAMES.get(name)
        if attr is None:
            raise ParseError(f"unknown tolerance {name!r}")
        try:
            applied[name] = float(value)
        except ValueError:
            raise ParseError(f"bad tolerance value {value!r}") from None
        setattr(tol, attr, applied[name])
    return applied


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
    doc.stamp()
    path = _out_path(args, f"{default_stem}.{args.format}")
    if path:
        write_report(doc, path, fmt=args.format)
        print(f"wrote {path}")
    for line in doc.summary_lines():
        print(line)
    return 0 if doc.fail_count == 0 else 1


def _stem(args, *parts: str) -> str:
    raw = "-".join(p for p in parts if p)
    return raw.replace(":", "").replace("/", "-").lower()


def cmd_group(args) -> int:
    group = parse_group_spec(args.group, order_cap=args.order_cap)
    ct = compute_classes(group)
    census = real_census(
        group, ct, include_coprime_order=group.characteristic is not None
    )
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
    return _emit(doc, args, _stem(args, "group", args.group))


def cmd_chartable(args) -> int:
    ctx_needed = not args.import_path
    if ctx_needed:
        group = parse_group_spec(args.group, order_cap=args.order_cap)
        ct = compute_classes(group)
        tab = compute_character_table(group, ct, seed=args.seed)
    if args.import_path:
        tab = load_table(args.import_path)
        print(f"loaded table for {tab.label}: order {tab.n}, {tab.n_classes} characters")
    if args.export:
        save_table(tab, args.export)
        print(f"wrote {args.export}")
    residual = verify_orthogonality(tab)
    degrees = sorted(int(round(d)) for d in tab.degrees)
    print(f"{tab.label}: degrees {degrees}")
    print(f"orthogonality residual {residual:.3e}")
    doc = ReportDocument(title=f"chartable {tab.label}")
    budget = tol.TABLE_ACCEPT if args.import_path else tol.ORTHOGONALITY
    doc.results = [
        CheckResult(
            check="orthogonality",
            group=tab.label,
            n=tab.n,
            inputs="",
            lhs=float(residual),
            rhs=float(budget),
            margin=float(budget - residual),
            passed=bool(residual <= budget),
        )
    ]
    doc.meta.update({"group": tab.label, "n": tab.n, "degrees": degrees})
    return _emit(doc, args, _stem(args, "chartable", args.group))


def cmd_lambda(args) -> int:
    ctx = get_context(args.group, order_cap=args.order_cap, seed=args.seed)
    subset = parse_subset_expr(args.subset, ctx.group, ctx.classes)
    rep = spectral_report(
        ctx.group,
        ctx.classes,
        ctx.table,
        subset,
        args.subset,
        dense_cap=args.dense_cap,
        seed=args.seed,
    )
    agree = rep.agree()
    print(
        f"{rep.group_label} S={rep.subset_expr} (d={rep.d}, "
        f"{'normal' if rep.normal else 'not normal'}, {rep.method})"
    )
    print(f"lambda_direct = {rep.lambda_direct!r}")
    if rep.lambda_char is not None:
        print(f"lambda_char   = {rep.lambda_char!r}  agree={agree}")
    doc = ReportDocument(title=f"lambda {rep.group_label} {rep.subset_expr}")
    diff = (
        abs(rep.lambda_direct - rep.lambda_char)
        if rep.lambda_char is not None
        else 0.0
    )
    doc.results = [
        CheckResult(
            check="lambda",
            group=rep.group_label,
            n=rep.n,
            inputs=f"S={rep.subset_expr};d={rep.d}",
            lhs=float(rep.lambda_direct),
            rhs=float(rep.lambda_char if rep.lambda_char is not None else rep.lambda_direct),
            margin=float(tol.LAMBDA_AGREE - diff),
            passed=bool(agree),
        )
    ]
    doc.meta.update(
        {
            "group": rep.group_label,
            "n": rep.n,
            "subset": rep.subset_expr,
            "normal": rep.normal,
            "method": rep.method,
            "char_eigenvalues": [
                [v.real, v.imag] for v in (rep.char_eigenvalues or [])
            ],
        }
    )
    return _emit(doc, args, _stem(args, "lambda", args.group, args.subset))


def cmd_growth(args) -> int:
    ctx = get_context(args.group, order_cap=args.order_cap, seed=args.seed)
    g, ct, tab = ctx.group, ctx.classes, ctx.table
    check = args.check
    if check == "2step":
        doc = sweep_2step(g, ct, tab, b_per_a=args.trials or 100, seed=args.seed)
    elif check == "gowers2":
        doc = sweep_gowers2(g, ct, tab, unions=not args.classes_only)
    elif check == "asymp":
        doc = sweep_asymp(g, ct, tab, pairs=args.trials, seed=args.seed)
    elif check == "dichotomy":
        doc = sweep_dichotomy(g, ct, tab)
    elif check == "survey":
        doc = square_growth_survey(g, ct, tab)
    elif check == "pyber":
        doc = pyber_report(g, ct, tab)
    elif check == "words":
        doc = word_growth_report(g, ct, tab, args.words[0], args.words[1])
    else:
        doc = gluck_report(g, None, tab)
    return _emit(doc, args, _stem(args, "growth", check, args.group))


def cmd_dist(args) -> int:
    ctx = get_context(args.group, order_cap=args.order_cap, seed=args.seed)
    g, ct, tab = ctx.group, ctx.classes, ctx.table
    if args.check == "bnp":
        doc = sweep_bnp_star(g, tab, trials=args.trials or 1000, seed=args.seed)
    elif args.check == "bnp2step":
        doc = sweep_bnp_two_step(g, tab, pairs=args.trials or 500, seed=args.seed)
    else:
        doc = sweep_wlambda(
            g, ct, tab, trials=args.trials or 100, seed=args.seed,
            dense_cap=args.dense_cap,
        )
    return _emit(doc, args, _stem(args, "dist", args.check, args.group))


def cmd_acceptance(args) -> int:
    outcomes = run_acceptance(profile=args.profile, seed=args.seed)
    for oc in outcomes:
        print(oc.line())
    doc = acceptance_document(outcomes, args.profile)
    code = _emit(doc, args, _stem(args, "acceptance", args.profile))
    print(f"acceptance ({args.profile}): {doc.verdict}")
    return code


COMMANDS = {
    "group": cmd_group,
    "chartable": cmd_chartable,
    "lambda": cmd_lambda,
    "growth": cmd_growth,
    "dist": cmd_dist,
    "acceptance": cmd_acceptance,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # an override lasts for this command only
    saved = {attr: getattr(tol, attr) for attr in tol.NAMES.values()}
    try:
        args.overrides = _apply_tolerances(args.tolerance)
        return COMMANDS[args.command](args)
    except (ParseError, SchemaError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NormGrowthError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        for attr, value in saved.items():
            setattr(tol, attr, value)


if __name__ == "__main__":
    sys.exit(main())
