import json
from types import SimpleNamespace

import pytest

from normgrowth import __version__, cli, permgroup, spectral
from normgrowth.chartable import save_table
from normgrowth.cli import main
from normgrowth.distributions import sweep_bnp_star, sweep_bnp_two_step, sweep_wlambda
from normgrowth.growth import (
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


def test_lambda_reports_lanczos_steps_only_on_that_route(tmp_path, capsys, monkeypatch):
    out = tmp_path / "lambda.json"
    argv = ["lambda", "--group", "A:5", "--subset", "class:1", "--out", str(out)]
    assert main(argv) == 0
    assert "lanczos: " not in capsys.readouterr().out
    meta = json.loads(out.read_text())["meta"]
    assert meta["method"] == "dense"
    assert not any(key.startswith("lanczos") for key in meta)
    monkeypatch.setattr(spectral, "DENSE_CAP", 1)
    assert main(argv) == 0
    assert "lanczos: " in capsys.readouterr().out
    meta = json.loads(out.read_text())["meta"]
    assert meta["method"] == "lanczos"
    assert 1 <= meta["lanczos_steps"] <= 4
    assert 0.0 <= meta["lanczos_residual"] <= 1e-10


def test_chartable_verify_export_import(tmp_path, capsys):
    assert main(["chartable", "--group", "A:5", "--verify"]) == 0
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
}


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
    assert list(cli.CHECKS["growth"]) == [
        "2step", "gowers2", "asymp", "dichotomy", "survey", "pyber", "words", "gluck"
    ]
    assert list(cli.CHECKS["dist"]) == ["bnp", "bnp2step", "wlambda"]


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
    assert len(header["tolerances"]) == 12
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
    # on the Lanczos route one step gives the Rayleigh quotient, not lambda
    "lambda-lanczos": (["lambda", "--subset", "class:1", "--group", "A:5"], "lanczos-tol=1e300", {"lambda"}),
    # the recovery gives up on every recombination, so there is no table
    "chartable": (["chartable", "--verify", "--group", "A:5"], "eigen-collision=1e9", "DegenerateSpectrum"),
    "orthogonality": (["chartable", "--verify", "--group", "A:5"], "orthogonality=-1", "OrthogonalityError"),
    "degree-integrality": (
        ["chartable", "--verify", "--group", "A:5"], "degree-integrality=-1", "NonIntegralDegree"
    ),
    "table-accept": (["chartable", "--import", "{table}", "--group", "A:5"], "table-accept=-1", "OrthogonalityError"),
    "lambda-agree": (["lambda", "--subset", "class:1", "--group", "A:5"], "lambda-agree=-1", {"lambda"}),
    "lambda-one": (["lambda", "--subset", "class:1", "--group", "A:5"], "lambda-one=-1", "NotNormal"),
    "dist-unit": (["dist", "--check", "bnp", "--trials", "1", "--group", "A:5"], "dist-unit=-1", "InvalidWeights"),
    # read only by the acceptance criteria 10 and 6
    "wlambda-agree": (["acceptance", "--profile", "quick"], "wlambda-agree=-1", {"criterion-10"}),
    "pab-relative": (["acceptance", "--profile", "quick"], "pab-relative=-1", {"criterion-6"}),
}


def test_every_tolerance_has_an_override_case():
    overridden = {override.partition("=")[0] for _, override, _ in OVERRIDE_CASES.values()}
    assert overridden == set(DEFAULT.by_name())


@pytest.mark.parametrize("case", list(OVERRIDE_CASES))
def test_tolerance_override_reaches_check(tmp_path, capsys, monkeypatch, a5, case):
    argv, override, fails = OVERRIDE_CASES[case]
    if override.startswith("lanczos-tol="):
        monkeypatch.setattr(spectral, "DENSE_CAP", 1)
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
    assert main(["lambda", "--group", "A:5", "--subset", "word:"]) == 1
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


class _CountedWalks(list):
    """A record list that counts the walks over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def _mixed_doc():
    def rec(inputs, lhs, rhs, **kw):
        return CheckResult.bound("demo", "A5", 60, inputs, lhs, rhs, **kw)

    results = [
        rec("a", 1.0, 2.0),
        rec("b", 3.0, 2.0),
        rec("c", 0.5, 2.0),
        CheckResult("demo", "A5", 60, "d", 0.0, 0.0, 0.0, False, skipped=True),
        rec("e", 2.5, 2.0),
    ]
    return ReportDocument(title="demo", results=_CountedWalks(results))


@pytest.mark.parametrize("failing", [True, False])
def test_emit_counts_once(tmp_path, capsys, failing):
    """Summary line, written summary and exit code of a mixed report, pinned."""
    doc = _mixed_doc()
    if not failing:
        for r in doc.results:
            r.passed = True
    out = tmp_path / "mixed.json"
    args = SimpleNamespace(seed=0, tol=DEFAULT, overrides=None, format="json", out=str(out))
    before = doc.results.walks
    code = cli._emit(doc, args, "mixed")
    # one count for the summary line and the exit code, one in the writer, and
    # a walk over the failed records only when there are some (ten walks before)
    assert doc.results.walks - before == 2 + failing
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
