import json
import time

import pytest

from markedgroups.cli import load_group, main
from markedgroups.experiments import (
    exp_continuity,
    exp_epsilon,
    exp_orbit,
    exp_zmod_limit,
)
from markedgroups.presentations import builtin, serialize_presentation
from markedgroups.words import parse_word


# -- experiment reports ------------------------------------------------------


def test_exp_zmod_limit_passes():
    report = exp_zmod_limit(6)
    assert report.passed
    assert [c.id for c in report.checks] == [
        f"zmod-{i}" for i in range(2, 7)
    ]
    payload = report.to_dict()
    assert payload["pass"] is True
    assert all("ms" in c for c in payload["checks"])


def test_exp_zmod_limit_rejects_small_imax():
    with pytest.raises(ValueError):
        exp_zmod_limit(1)


def test_exp_orbit_passes():
    for rho in (1, 2):
        report = exp_orbit(rho)
        assert report.passed, report.to_json()
    with pytest.raises(ValueError):
        exp_orbit(4)


def test_exp_orbit_escape_index_grows():
    assert exp_orbit(1).params["i"] == 1
    assert exp_orbit(3).params["i"] == 2


def test_exp_continuity_passes():
    report = exp_continuity(2)
    assert report.passed, report.to_json()
    witness = report.checks[1].witness
    assert witness["length"] <= 8
    with pytest.raises(ValueError):
        exp_continuity(1)


def test_exp_epsilon_passes():
    report = exp_epsilon([1, -1, 2], 1)
    assert report.passed, report.to_json()
    by_id = {c.id: c for c in report.checks}
    assert by_id["ball-injectivity-2"].witness["collisions"] == 0
    assert by_id["kernel-witness-2"].witness["trace_steps"] == 7
    with pytest.raises(ValueError):
        exp_epsilon([1], 3)


def test_report_json_deterministic_without_timing():
    a = exp_orbit(1).to_json(include_timing=False)
    b = exp_orbit(1).to_json(include_timing=False)
    assert a == b
    assert '"ms"' not in a


# -- group loading -----------------------------------------------------------


def test_load_group_specs():
    assert load_group("E", 10_000).name == "E"
    assert load_group("Z", 10_000).oracle.order is None
    assert load_group("Z/6", 10_000).oracle.order == 6
    with pytest.raises(SystemExit):
        load_group("nope", 10_000)


def test_load_group_from_file(tmp_path):
    path = tmp_path / "g.pres"
    path.write_text(serialize_presentation(builtin("G")))
    group = load_group(f"file:{path}", 10_000)
    w = parse_word("(h^2)^s (h a)^-1", group.oracle.alphabet)
    assert group.oracle.is_trivial(w)


def test_load_group_cyclic_file(tmp_path):
    path = tmp_path / "c.pres"
    path.write_text("group C\ngens x\nrel x^10\nrel x^4\n")
    group = load_group(f"file:{path}", 10_000)
    assert group.oracle.order == 2  # gcd(10, 4)


def test_cli_one_letter_file_keeps_its_letter_and_name(capsys, tmp_path):
    path = tmp_path / "c3.pres"
    path.write_text("group C3\ngens y\nrel y^3\n")
    assert main(["wp", "--group", f"file:{path}", "--word", "y y y"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["group"] == "C3" and out["trivial"] is True
    assert main(
        ["compare", "--group", f"file:{path}", "--other", "Z/3",
         "--max-radius", "6"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["left"] == "C3" and out["saturated"] is True


def test_load_group_undecidable_file(tmp_path):
    path = tmp_path / "f.pres"
    path.write_text("group F\ngens x y\nrel x y x\n")
    with pytest.raises(SystemExit):
        load_group(f"file:{path}", 10_000)


# -- CLI entry point ---------------------------------------------------------


def test_cli_wp_exit_codes(capsys):
    assert main(["wp", "--group", "E", "--word", "[h, a]"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["trivial"] is True
    assert main(["wp", "--group", "E", "--word", "t"]) == 1
    assert main(["wp", "--group", "E", "--word", "t )"]) == 2


def test_cli_ball_output(capsys, tmp_path):
    json_path = tmp_path / "ball.json"
    assert main(
        ["ball", "--group", "Z/2", "--radius", "2", "--json", str(json_path)]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# group=Z/2 radius=2 count=3 fingerprint=")
    assert out[1:] == ["1", "x1 x1", "x1^-1 x1^-1"]
    saved = json.loads(json_path.read_text())
    assert saved["count"] == 3


def test_cli_compare(capsys):
    assert main(
        ["compare", "--group", "Z/5", "--other", "Z", "--max-radius", "8"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["agreement_radius"] == 4 and out["saturated"] is False


def test_cli_chabauty(capsys):
    assert main(["chabauty", "--rho", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["i"] == 1 and out["agree"] is True
    # forcing i=0 puts h a in the conjugate but not in H2 inside the ball
    assert main(["chabauty", "--rho", "2", "--i", "0"]) == 1


def test_cli_condense(capsys):
    assert main(["condense", "--i", "1", "--radius", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["coincide"] is True


def test_cli_experiment(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    code = main(
        [
            "experiment", "zmod-limit", "--imax", "4",
            "--no-timing", "--json", str(json_path),
        ]
    )
    assert code == 0
    saved = json.loads(json_path.read_text())
    assert saved["pass"] is True and "ms" not in saved["checks"][0]
    assert main(["experiment", "epsilon", "--i", "1,2", "--rho", "1"]) == 0
    capsys.readouterr()


def test_cli_budget_exceeded(capsys):
    assert main(
        ["--budget", "6", "wp", "--group", "G", "--word", "s^-1 h^6 s"]
    ) == 1
    assert "error" in capsys.readouterr().err


def test_cli_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["experiment", "unknown"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["ball", "--group", "Z/0", "--radius", "1"],
        ["ball", "--group", "Z/abc", "--radius", "1"],
        ["ball", "--group", "nope", "--radius", "1"],
        ["ball", "--group", "file:/missing", "--radius", "1"],
        ["ball", "--group", "Z", "--radius", "-1"],
        ["condense", "--i", "1", "--radius", "-2"],
        ["compare", "--group", "Z", "--other", "Z/3", "--max-radius", "-1"],
        ["experiment", "orbit", "--rho", "5"],
        ["experiment", "zmod-limit", "--imax", "1"],
        ["experiment", "epsilon", "--i", "x"],
        ["--budget", "-1", "wp", "--group", "E", "--word", "a"],
        ["ball", "--group", "Z", "--radius", "1", "--workers", "-3"],
    ],
)
def test_cli_bad_arguments_exit_2(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("word", ["a^1000000000", "(a^9999)^(b^9999)"])
def test_cli_parse_budget(capsys, word):
    start = time.perf_counter()
    assert main(["wp", "--group", "E", "--word", word]) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: word expands to") and err.count("\n") == 1


def test_cli_presentation_file_budget(capsys, tmp_path):
    path = tmp_path / "big.pres"
    path.write_text("group X\ngens x\nrel x^1000000000\n")
    start = time.perf_counter()
    assert main(["ball", "--group", f"file:{path}", "--radius", "1"]) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: word expands to") and "(line 3)" in err, err
    assert err.count("\n") == 1


def test_cli_relator_equation_budget(capsys, tmp_path):
    # each side fits the default budget of 10000; together they do not
    path = tmp_path / "eq.pres"
    path.write_text("group X\ngens x\nrel x^6000 = x^-6000\n")
    assert main(["ball", "--group", f"file:{path}", "--radius", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(line 3)" in err, err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--budget", "100", "condense", "--i", "1000000000", "--radius", "1"],
        ["--budget", "100", "chabauty", "--rho", "1", "--i", "1000000000"],
        ["experiment", "epsilon", "--i", "1000000000", "--rho", "0"],
    ],
)
def test_cli_index_budget(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ["ball", "--group", "E", "--radius", "3"],
        ["condense", "--i", "1", "--radius", "2"],
    ],
)
def test_cli_workers_flag_has_no_effect(capsys, argv):
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--workers", "4"]) == 0
    assert capsys.readouterr().out == plain
