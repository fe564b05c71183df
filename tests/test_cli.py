import json

import pytest

from normgrowth import tolerances as tol
from normgrowth.cli import main
from normgrowth.reports import CSV_COLUMNS


def test_group_summary(capsys):
    assert main(["group", "--group", "A:5"]) == 0
    out = capsys.readouterr().out
    assert "60" in out and "A5" in out


def test_lambda_both_routes(capsys):
    assert main(["lambda", "--group", "A:5", "--subset", "all-nonid"]) == 0
    out = capsys.readouterr().out
    assert "agree" in out.lower() or "lambda" in out.lower()


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


TOLERANCE_DEFAULTS = {attr: getattr(tol, attr) for attr in tol.NAMES.values()}


def _tolerances_now():
    return {attr: getattr(tol, attr) for attr in tol.NAMES.values()}


def test_tolerance_override_roundtrip(tmp_path):
    out = tmp_path / "lambda.json"
    argv = ["lambda", "--group", "A:5", "--subset", "class:1", "--out", str(out)]
    assert main(argv + ["--tolerance", "lambda-agree=1e-3"]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["tolerances"] == {"lambda-agree": 1e-3}
    assert doc["results"][0]["margin"] == pytest.approx(1e-3, abs=1e-12)
    assert _tolerances_now() == TOLERANCE_DEFAULTS
    # the next command runs at the defaults and its report says nothing of them
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    assert "tolerances" not in doc["meta"]
    assert doc["results"][0]["margin"] == pytest.approx(1e-6, abs=1e-12)


@pytest.mark.parametrize(
    "argv, override",
    [
        (["growth", "--check", "dichotomy"], "slack=-1e6"),
        (["growth", "--check", "2step", "--trials", "1"], "slack=-1e6"),
        (["growth", "--check", "asymp", "--trials", "2"], "strict-slack=-1e6"),
        (["lambda", "--subset", "class:1", "--dense-cap", "1"], "power-tol=1e300"),
        (["chartable", "--verify"], "eigen-collision=1e9"),
    ],
    ids=["dichotomy", "2step", "asymp", "lambda-power", "chartable"],
)
def test_tolerance_override_reaches_check(tmp_path, capsys, argv, override):
    out = tmp_path / "report.json"
    code = main(argv + ["--group", "A:5", "--tolerance", override, "--out", str(out)])
    assert code == 1
    assert _tolerances_now() == TOLERANCE_DEFAULTS
    if out.exists():
        name, _, value = override.partition("=")
        assert json.loads(out.read_text())["meta"]["tolerances"] == {name: float(value)}
    else:
        # no table, so no report: the recovery gave up on every recombination
        assert "DegenerateSpectrum" in capsys.readouterr().err


def test_tolerance_override_restored_after_usage_error(capsys):
    argv = ["group", "--group", "A:5", "--tolerance", "slack=5", "--tolerance", "slack=x"]
    assert main(argv) == 2
    assert _tolerances_now() == TOLERANCE_DEFAULTS


@pytest.mark.parametrize("name", ["no-such", "commutation", "roundtrip"])
def test_bad_tolerance_name_exits_2(capsys, name):
    code = main(["group", "--group", "A:5", "--tolerance", f"{name}=1"])
    assert code == 2
    assert "unknown tolerance" in capsys.readouterr().err


def test_bad_group_spec_exits_2(capsys):
    assert main(["group", "--group", "Q:9"]) == 2
    assert main(["group", "--group", "S:x"]) == 2


def test_bad_subset_exits_2(capsys):
    assert main(["lambda", "--group", "A:5", "--subset", "word:"]) == 1
    assert main(["lambda", "--group", "A:5", "--subset", "classes:0,99"]) == 2


def test_missing_arguments_exit_2(capsys):
    assert main(["lambda", "--group", "A:5"]) == 2
    assert main(["growth", "--group", "A:5"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0


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
