import csv
import io
import json
import re
from types import SimpleNamespace

import pytest

from conftest import PRINT_PEAK_KB, run_child

from normgrowth import __version__, acceptance, cli, permgroup, reports, spectral
from normgrowth.acceptance import (
    CHECKS,
    check_names,
    determinism_report,
    mixing_report,
    real_brute_force_report,
    specchi_eq_report,
    specchi_ineq_report,
    table_cert_report,
    wlambda_indicator_report,
)
from normgrowth.chartable import save_table
from normgrowth.cli import main
from normgrowth.context import PROFILE_QUICK, get_context
from normgrowth.distributions import sweep_bnp_star, sweep_bnp_two_step, sweep_wlambda
from normgrowth.growth import (
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
from normgrowth.reports import CSV_COLUMNS, CheckResult, ReportDocument
from normgrowth.tolerances import DEFAULT, Tolerances


def test_group_summary(capsys):
    assert main(["group", "--group", "A:5"]) == 0
    out = capsys.readouterr().out
    assert "60" in out and "A5" in out


def test_group_refuses_order_above_cap(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(permgroup, "closure", lambda *a, **k: calls.append(a))
    assert main(["group", "--group", "S:8"]) == 1
    assert "CapExceeded" in capsys.readouterr().err
    assert calls == []


def test_lambda_both_routes(capsys):
    assert main(["lambda", "--group", "A:5", "--subset", "all-nonid"]) == 0
    out = capsys.readouterr().out
    assert "agree" in out.lower() or "lambda" in out.lower()


def test_lambda_reports_lanczos_steps_only_on_that_route(tmp_path, capsys):
    """One route, one line: the certificate residual of the class characters, printed and kept."""
    out = tmp_path / "lambda.json"
    argv = ["lambda", "--group", "A:5", "--subset", "class:1", "--out", str(out)]
    assert main(argv) == 0
    meta = json.loads(out.read_text())["meta"]
    residual_lines = [line for line in capsys.readouterr().out.splitlines() if "residual" in line]
    assert residual_lines == [f"central: certificate residual {meta['central_residual']:.3e}"]
    assert meta["method"] == "central"
    assert not any(key.startswith("lanczos") for key in meta)
    assert 0.0 <= meta["central_residual"] <= spectral.CHARACTER_CERTIFY


def test_chartable_verify_export_import(tmp_path, capsys):
    assert main(["chartable", "--group", "A:5"]) == 0
    path = tmp_path / "a5.json"
    assert main(["chartable", "--group", "A:5", "--export", str(path)]) == 0
    assert path.exists()
    assert main(["chartable", "--group", "A:5", "--import", str(path)]) == 0
    # a corrupted table must fail certification, not load quietly
    blob = json.loads(path.read_text())
    blob["characters"][1][1][0] += 0.5
    path.write_text(json.dumps(blob))
    assert main(["chartable", "--group", "A:5", "--import", str(path)]) == 1


def test_growth_check_and_csv_output(tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        [
            "growth",
            "--group",
            "A:5",
            "--check",
            "2step",
            "--trials",
            "2",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    # the whole file is what `csv.DictWriter` writes for the same sweep's rows
    doc = sweep_2step(get_context("A:5"), trials=2, seed=0)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows([r.row() for r in doc.results])
    assert out.read_bytes() == buf.getvalue().encode("utf-8")
    assert any(r.inputs != r.inputs.replace(",", "") for r in doc.results)


def test_growth_gluck_wrong_group_exits_1(capsys):
    assert main(["growth", "--group", "A:5", "--check", "gluck"]) == 1
    assert "NotLieType" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["survey", "pyber"])
def test_census_of_a_non_simple_group_exits_1(capsys, check):
    assert main(["growth", "--group", "S:5", "--check", check]) == 1
    assert "NotSimple: " in capsys.readouterr().err


def test_import_of_a_wrongly_typed_table_exits_2(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text("5")
    assert main(["chartable", "--group", "A:5", "--import", str(path)]) == 2
    assert "error: a table document must be a JSON object" in capsys.readouterr().err


def test_growth_words_and_survey(capsys):
    assert (
        main(
            [
                "growth",
                "--group",
                "A:5",
                "--check",
                "words",
                "--words",
                "xx",
                "xyXY",
            ]
        )
        == 0
    )
    assert main(["growth", "--group", "A:5", "--check", "survey"]) == 0


def test_dist_checks(capsys):
    assert main(["dist", "--group", "A:5", "--check", "bnp", "--trials", "3"]) == 0
    assert main(["dist", "--group", "A:5", "--check", "wlambda", "--trials", "2"]) == 0


# each check without --trials against its sweep called with the documented default
CHECK_DEFAULTS = {
    ("growth", "2step"): lambda c: sweep_2step(c, trials=100, seed=0),
    ("growth", "gowers2"): lambda c: sweep_gowers2(c, unions=True),
    ("growth", "gowers2", "--classes-only"): lambda c: sweep_gowers2(c, unions=False),
    ("growth", "asymp"): lambda c: sweep_asymp(c, trials=None, seed=0),
    ("growth", "dichotomy"): lambda c: sweep_dichotomy(c),
    ("growth", "survey"): lambda c: square_growth_survey(c),
    ("growth", "pyber"): lambda c: pyber_report(c),
    ("growth", "words"): lambda c: word_growth_report(c, "xx", "xyXY"),
    ("dist", "bnp"): lambda c: sweep_bnp_star(c, trials=1000, seed=0),
    ("dist", "bnp2step"): lambda c: sweep_bnp_two_step(c, trials=500, seed=0),
    ("dist", "wlambda"): lambda c: sweep_wlambda(c, trials=100, seed=0),
    ("growth", "specchi-eq"): lambda c: specchi_eq_report(c, seed=0),
    ("growth", "specchi-ineq"): lambda c: specchi_ineq_report(c, trials=200, seed=0),
    ("growth", "frobenius-oracle"): lambda c: frobenius_oracle_report(c),
    ("growth", "table-cert"): lambda c: table_cert_report(c),
    ("dist", "wlambda-indicator"): lambda c: wlambda_indicator_report(c),
    ("growth", "real-brute-force"): lambda c: real_brute_force_report(c),
    ("growth", "mixing"): lambda c: mixing_report(c, trials=500, seed=0),
    ("growth", "determinism"): lambda c: determinism_report(c, seed=0),
}
# the checks that need a group of Lie type, so A:5 exits 1 with NotLieType
LIE_TYPE_CHECKS = ("gluck", "real-coprime")


def _written_body(argv, out, want) -> None:
    """`main(argv)` writes the body of `want` to `out` and exits with its code."""
    code = main(argv + ["--out", str(out)])
    want.meta.update(version=__version__, seed=0)
    assert code == want.tally().exit_code
    written = json.loads(out.read_text())
    written.pop("header")
    body = json.loads(want.to_json())
    body.pop("header")
    assert written == body


@pytest.mark.parametrize("key", list(CHECK_DEFAULTS), ids=["-".join(p.lstrip("-") for p in k) for k in CHECK_DEFAULTS])
def test_check_defaults_match_the_sweeps(tmp_path, capsys, a5, key):
    command, check, *flags = key
    want = CHECK_DEFAULTS[key](a5)
    argv = [command, "--check", check, *flags, "--group", "A:5"]
    _written_body(argv, tmp_path / "report.json", want)


def test_gluck_through_the_table(tmp_path, capsys, psl27):
    want = gluck_report(psl27)
    argv = ["growth", "--check", "gluck", "--group", "PSL2:7"]
    _written_body(argv, tmp_path / "report.json", want)


def test_check_names_and_order():
    """The registry's first eleven entries are the CLI's sweeps, in order, under their commands.

    Every entry is reachable from the CLI, and each is pinned to its
    default above or runs on a group of Lie type.
    """
    growth = ["2step", "gowers2", "asymp", "dichotomy", "survey", "pyber", "words", "gluck"]
    dist = ["bnp", "bnp2step", "wlambda"]
    assert list(CHECKS)[:11] == growth + dist
    assert check_names("growth")[:8] == growth
    assert check_names("dist")[:3] == dist
    assert set(check_names("growth") + check_names("dist")) == set(CHECKS)
    assert {key[1] for key in CHECK_DEFAULTS} | set(LIE_TYPE_CHECKS) == set(CHECKS)


def _first_gate_step(name):
    """The criterion and group of the first gate step that runs `name`, on A:5 when one does."""
    steps = [
        (row, spec)
        for row in acceptance.ROWS
        for check, step_spec, _ in row.steps
        if check == name
        for spec in (PROFILE_QUICK if step_spec == acceptance.PROFILE else (step_spec,))
    ]
    return next(((row, spec) for row, spec in steps if spec == "A:5"), steps[0])


@pytest.mark.parametrize("name", list(CHECKS)[11:])
def test_gate_steps_are_the_cli_checks(tmp_path, capsys, name):
    """`<command> --check NAME --group G` writes the body of NAME's step on G inside the gate."""
    row, spec = _first_gate_step(name)
    steps = acceptance.run_steps(row, seed=0)
    (want,) = [rep for check, ctx, rep in steps if check == name and ctx is get_context(spec)]
    argv = [CHECKS[name].command, "--check", name, "--group", spec]
    _written_body(argv, tmp_path / "report.json", want)


def test_real_coprime_wrong_group_exits_1(capsys):
    assert main(["growth", "--group", "A:5", "--check", "real-coprime"]) == 1
    assert "NotLieType" in capsys.readouterr().err


# the checks whose report depends on a trial count
TRIAL_CHECKS = {"2step", "asymp", "bnp", "bnp2step", "wlambda", "specchi-ineq", "mixing"}


@pytest.mark.parametrize("name", list(CHECKS))
def test_trials_is_refused_by_the_checks_that_take_no_count(tmp_path, capsys, name):
    """`--trials` runs a check that reads a trial count and exits 2 on any other."""
    out = tmp_path / "report.json"
    argv = [CHECKS[name].command, "--check", name, "--group", "A:5", "--trials", "1", "--out", str(out)]
    if name in TRIAL_CHECKS:
        assert main(argv) == 0 and out.exists()
        return
    assert main(argv) == 2
    assert f"--check {name} does not read --trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, reader",
    [(["--classes-only"], "gowers2"), (["--words", "xx", "xyx"], "words")],
    ids=["classes-only", "words"],
)
def test_growth_flags_are_refused_by_the_checks_that_ignore_them(tmp_path, capsys, flags, reader):
    """Each growth check but the one that reads the flag exits 2 naming it; default values pass."""
    for name in check_names("growth"):
        if name == reader:
            continue
        out = tmp_path / f"{name}.json"
        assert main(["growth", "--check", name, "--group", "A:5", *flags, "--out", str(out)]) == 2
        assert f"--check {name} does not read {flags[0]}" in capsys.readouterr().err
        assert not out.exists()
    out = tmp_path / "default-words.json"
    assert main(["growth", "--check", "dichotomy", "--group", "A:5", "--words", "xx", "xyXY", "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["growth", "dist"])
def test_unknown_check_exits_2(tmp_path, capsys, command):
    out = tmp_path / "report.json"
    assert main([command, "--check", "no-such", "--group", "A:5", "--out", str(out)]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


def test_tolerance_override_roundtrip(tmp_path):
    out = tmp_path / "lambda.json"
    argv = ["lambda", "--group", "A:5", "--subset", "class:1", "--out", str(out)]
    assert main(argv + ["--tolerance", "lambda-agree=1e-3"]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["tolerances"] == {"lambda-agree": 1e-3}
    assert doc["results"][0]["margin"] == pytest.approx(1e-3, abs=1e-12)
    # the next command runs at the defaults and its body says nothing of them
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    assert "tolerances" not in doc["meta"]
    assert doc["results"][0]["margin"] == pytest.approx(1e-6, abs=1e-12)


def test_header_records_the_tolerances_in_effect(tmp_path):
    """Every name and value in the header; the overrides alone in the body."""
    out = tmp_path / "lambda.json"
    argv = ["lambda", "--group", "A:5", "--subset", "class:1", "--out", str(out)]
    assert main(argv) == 0
    header = json.loads(out.read_text())["header"]
    assert header["tolerances"] == DEFAULT.by_name()
    assert len(header["tolerances"]) == 11
    assert main(argv + ["--tolerance", "slack=0.5"]) == 0
    doc = json.loads(out.read_text())
    assert doc["header"]["tolerances"] == {**DEFAULT.by_name(), "slack": 0.5}
    assert doc["meta"]["tolerances"] == {"slack": 0.5}


# id -> (argv, override, what fails: the failing record checks of the report,
# or the error printed when no report is written); the first five ids predate
# the rest
OVERRIDE_CASES = {
    "dichotomy": (["growth", "--check", "dichotomy", "--group", "A:5"], "slack=-1e6", {"dichotomy"}),
    "2step": (["growth", "--check", "2step", "--trials", "1", "--group", "A:5"], "slack=-1e6", {"2step"}),
    "asymp": (["growth", "--check", "asymp", "--trials", "2", "--group", "A:5"], "strict-slack=-1e6", {"asymp"}),
    # the recovery gives up on every recombination, so there is no table
    "chartable": (["chartable", "--group", "A:5"], "eigen-collision=1e9", "DegenerateSpectrum"),
    "orthogonality": (["chartable", "--group", "A:5"], "orthogonality=-1", "OrthogonalityError"),
    "degree-integrality": (["chartable", "--group", "A:5"], "degree-integrality=-1", "NonIntegralDegree"),
    "table-accept": (["chartable", "--import", "{table}", "--group", "A:5"], "table-accept=-1", "OrthogonalityError"),
    "lambda-agree": (["lambda", "--subset", "class:1", "--group", "A:5"], "lambda-agree=-1", {"lambda"}),
    "lambda-one": (["lambda", "--subset", "class:1", "--group", "A:5"], "lambda-one=-1", "NotNormal"),
    "dist-unit": (["dist", "--check", "bnp", "--trials", "1", "--group", "A:5"], "dist-unit=-1", "InvalidWeights"),
    "wlambda-agree": (
        ["dist", "--check", "wlambda-indicator", "--group", "A:5"], "wlambda-agree=-1", {"wlambda-indicator"}
    ),
    "pab-relative": (
        ["growth", "--check", "frobenius-oracle", "--group", "A:5"], "pab-relative=-1", {"frobenius-oracle"}
    ),
    # an override reaches the gate's criteria as well
    "acceptance": (["acceptance", "--profile", "quick"], "wlambda-agree=-1", {"criterion-10"}),
}


def test_every_tolerance_has_an_override_case():
    overridden = {override.partition("=")[0] for _, override, _ in OVERRIDE_CASES.values()}
    assert overridden == set(DEFAULT.by_name())


@pytest.mark.parametrize("case", list(OVERRIDE_CASES))
def test_tolerance_override_reaches_check(tmp_path, capsys, a5, case):
    argv, override, fails = OVERRIDE_CASES[case]
    table = tmp_path / "a5-table.json"
    save_table(a5.table, table)
    argv = [str(table) if a == "{table}" else a for a in argv]
    out = tmp_path / "report.json"
    assert main(argv + ["--tolerance", override, "--out", str(out)]) == 1
    name, _, value = override.partition("=")
    if isinstance(fails, str):
        assert not out.exists()
        assert f"{fails}: " in capsys.readouterr().err
        return
    doc = json.loads(out.read_text())
    assert {r["check"] for r in doc["results"] if not r["pass"]} == fails
    assert doc["meta"]["tolerances"] == {name: float(value)}
    assert doc["header"]["tolerances"][name] == float(value)


def test_cached_table_honours_table_tolerance_override(tmp_path, capsys):
    """A table cached by an earlier command is not reused under an override."""
    argv = ["growth", "--group", "A:5", "--check", "dichotomy", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert main(argv + ["--tolerance", "eigen-collision=1e9"]) == 1
    assert "DegenerateSpectrum" in capsys.readouterr().err
    assert main(argv) == 0


def test_tolerance_override_restored_after_usage_error(tmp_path, capsys):
    """An override is a value for one command, so a failed parse leaves nothing behind."""
    argv = ["group", "--group", "A:5", "--tolerance", "slack=5", "--tolerance", "slack=x"]
    assert main(argv) == 2
    assert DEFAULT == Tolerances()
    out = tmp_path / "group.json"
    assert main(["group", "--group", "A:5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["header"]["tolerances"] == DEFAULT.by_name()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_tolerance_exits_2(tmp_path, capsys, value):
    """nan would fail every record and inf pass every bound: a usage error instead."""
    out = tmp_path / "report.json"
    argv = ["growth", "--group", "A:5", "--check", "dichotomy", "--out", str(out)]
    assert main(argv + ["--tolerance", "slack=5", "--tolerance", f"slack={value}"]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name", ["no-such", "commutation", "roundtrip", "degree-error", "lambda_agree"]
)
def test_bad_tolerance_name_exits_2(capsys, name):
    code = main(["group", "--group", "A:5", "--tolerance", f"{name}=1"])
    assert code == 2
    assert "unknown tolerance" in capsys.readouterr().err


def test_bad_group_spec_exits_2(capsys):
    assert main(["group", "--group", "Q:9"]) == 2
    assert main(["group", "--group", "S:x"]) == 2
    assert main(["group", "--group", "A:1"]) == 2
    assert main(["group", "--group", "S:0"]) == 2


def test_bad_subset_exits_2(capsys):
    assert main(["lambda", "--group", "A:5", "--subset", "word:"]) == 2
    assert main(["lambda", "--group", "A:5", "--subset", "word:xq"]) == 2
    assert main(["growth", "--check", "words", "--group", "A:5", "--words", "xX", "xx"]) == 2
    assert main(["lambda", "--group", "A:5", "--subset", "classes:0,99"]) == 2


def test_missing_arguments_exit_2(capsys):
    assert main(["lambda", "--group", "A:5"]) == 2
    assert main(["growth", "--group", "A:5"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["growth", "--check", "asymp", "--trials", "0"],
        ["growth", "--check", "asymp", "--trials", "-3"],
        ["growth", "--check", "2step", "--trials", "0"],
        ["dist", "--check", "bnp", "--trials", "0"],
        ["dist", "--check", "bnp", "--trials", "-3"],
        ["group", "--seed", "-1"],
        ["group", "--order-cap", "-5"],
        ["group", "--order-cap", "0"],
        ["group", "--order-cap", "many"],
    ],
)
def test_out_of_range_counts_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    assert main(argv + ["--group", "A:5", "--out", str(out)]) == 2
    option = next(a for a in argv if a.startswith("--") and a != "--check")
    assert f"argument {option}" in capsys.readouterr().err
    assert not out.exists()


def test_generator_file_group(tmp_path, capsys):
    gens = tmp_path / "k4.txt"
    gens.write_text("(0 1) (2 3)\n(0 2) (1 3)\n")
    assert main(["group", "--group", str(gens)]) == 0
    out = capsys.readouterr().out
    assert "4" in out and "k4" in out


def test_out_env_fallback(tmp_path, monkeypatch):
    target = tmp_path / "reports"
    monkeypatch.setenv("NORMGROWTH_OUT", str(target))
    assert (
        main(["growth", "--group", "A:5", "--check", "dichotomy", "--out", ""]) == 0
    )
    written = list(target.glob("*.json"))
    assert len(written) == 1


def test_report_bodies_deterministic(tmp_path):
    paths = []
    for name in ("one.json", "two.json"):
        p = tmp_path / name
        args = [
            "growth",
            "--group",
            "A:5",
            "--check",
            "asymp",
            "--trials",
            "4",
            "--seed",
            "7",
            "--out",
            str(p),
        ]
        assert main(args) == 0
        paths.append(p)
    docs = [json.loads(p.read_text()) for p in paths]
    for doc in docs:
        doc.pop("header")
    assert docs[0] == docs[1]


def test_written_report_is_the_stdlib_encoding(tmp_path, monkeypatch):
    out = tmp_path / "asymp.json"
    written = []
    inner = cli.write_report

    def capture(doc, path, fmt="json"):
        inner(doc, path, fmt)
        written.append(doc)

    monkeypatch.setattr(cli, "write_report", capture)
    argv = ["growth", "--check", "asymp", "--group", "A:5", "--seed", "0", "--out", str(out)]
    assert main(argv) == 0
    (doc,) = written
    assert len(doc.results) > 1
    assert out.read_bytes() == (json.dumps(doc.as_dict(), indent=1) + "\n").encode("utf-8")


def _mixed_doc(failing):
    def rec(inputs, lhs, rhs, **kw):
        return CheckResult.bound("demo", "A5", 60, inputs, lhs, rhs, **kw)

    results = [
        rec("a", 1.0, 2.0),
        rec("b", 3.0, 2.0),
        rec("c", 0.5, 2.0),
        CheckResult("demo", "A5", 60, "d", 0.0, 0.0, 0.0, False, skipped=True),
        rec("e", 2.5, 2.0),
    ]
    if not failing:
        results = [r._replace(passed=True) for r in results]
    return ReportDocument(title="demo", results=results)


@pytest.mark.parametrize("failing", [True, False])
def test_emit_counts_once(tmp_path, capsys, monkeypatch, failing):
    """Summary line, written summary and exit code of a mixed report, from column counts.

    No Python walk over the rows: `results` is never iterated or indexed.
    Each block is counted once for the summary line and the exit code and
    once in the writer, and only the failed records are read back as rows,
    for their lines.
    """
    doc = _mixed_doc(failing)
    seen = {"tally": [], "row": []}

    def no_walk(*args):
        raise AssertionError("a walk over the rows")

    def counted(name):
        inner = getattr(reports.Records, name)

        def wrapper(self, *args):
            seen[name].append(args)
            return inner(self, *args)

        monkeypatch.setattr(reports.Records, name, wrapper)

    monkeypatch.setattr(reports.RecordRows, "__iter__", no_walk)
    monkeypatch.setattr(reports.RecordRows, "__getitem__", no_walk)
    counted("tally")
    counted("row")
    out = tmp_path / "mixed.json"
    args = SimpleNamespace(seed=0, tol=DEFAULT, overrides=None, format="json", out=str(out))
    code = cli._emit(doc, args, "mixed")
    monkeypatch.undo()
    assert len(doc.blocks) == 1 and len(seen["tally"]) == 2
    assert seen["row"] == ([(1,), (4,)] if failing else [])
    printed = capsys.readouterr().out.splitlines()
    summary = json.loads(out.read_text())["summary"]
    if failing:
        assert code == 1
        assert printed == [
            f"wrote {out}",
            "demo: 2 pass, 2 fail, 1 skip -> FAIL",
            "  FAIL demo A5 b lhs=3.0 rhs=2.0",
            "  FAIL demo A5 e lhs=2.5 rhs=2.0",
        ]
        assert summary == {"pass": 2, "fail": 2, "skip": 1, "verdict": "FAIL"}
    else:
        assert code == 0
        assert printed == [f"wrote {out}", "demo: 4 pass, 0 fail, 1 skip -> PASS"]
        assert summary == {"pass": 4, "fail": 0, "skip": 1, "verdict": "PASS"}
    assert out.read_bytes() == (json.dumps(doc.as_dict(), indent=1) + "\n").encode("utf-8")


# peak RSS in MB of `growth --check asymp --group PSL2:11` with no report
# written: 520 200 records, 77 MB as columns against 215 MB as one object each.
# The child's own VmHWM read 78.8 MB, and 67 MB since pairs are row indices.
ASYMP_PSL211_PEAK_MB = 120
# peak RSS in MB of `growth --check gowers2` with no report written.  PSL3:4
# has 1 023 unions, 1 046 529 pairs and 9 418 761 records: its child reads
# 473 MB with pairs as row indices and one inputs string per union and
# class, against 637 MB with a list of (A, B) tuples and a string per pair.
# PSL3:3 has 4 095 unions, 16.8 M pairs, past `growth.PAIR_CAP`, so it draws
# 2^20 pairs (11 534 336 records) and reads 671 MB; with every pair it died
# of MemoryError at 3.6 GB.
GOWERS2_PEAK_MB = {"PSL3:4": 560, "PSL3:3": 800}


def test_asymp_sweep_memory_stays_bounded():
    """The default asymp sweep on PSL2:11 runs in a child process under a stated peak RSS."""
    script = (
        "import os\n"
        "from normgrowth.cli import main\n"
        f"os.environ.pop({cli.OUT_ENV!r}, None)\n"
        "print(main(['growth', '--check', 'asymp', '--group', 'PSL2:11']))\n"
    ) + PRINT_PEAK_KB
    code, peak_kb = run_child(script).split()[-2:]
    assert code == "0"
    assert int(peak_kb) / 1024 < ASYMP_PSL211_PEAK_MB


@pytest.mark.parametrize("spec, records", [("PSL3:4", 1_046_529 * 9), ("PSL3:3", (1 << 20) * 11)])
def test_gowers2_union_sweep_memory_stays_bounded(spec, records):
    """`growth --check gowers2` on the unions of PSL3:4 and PSL3:3, in a child under a stated peak RSS."""
    script = (
        "import os\n"
        "from normgrowth.cli import main\n"
        f"os.environ.pop({cli.OUT_ENV!r}, None)\n"
        f"print(main(['growth', '--check', 'gowers2', '--group', {spec!r}]))\n"
    ) + PRINT_PEAK_KB
    *printed, code, peak_kb = run_child(script).split("\n")[:-1]
    assert code == "0"
    tally = re.search(r"(\d+) pass, (\d+) fail, (\d+) skip", printed[-1])
    assert sum(map(int, tally.groups())) == records
    assert int(peak_kb) / 1024 < GOWERS2_PEAK_MB[spec]


@pytest.mark.parametrize("command, check, cost", [("growth", "2step", "4 ms a record"), ("dist", "bnp", "n translates")])
def test_help_states_the_cost_above_the_dense_cap(capsys, command, check, cost):
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert check in text and f"above order {spectral.DENSE_CAP}" in text and cost in text
