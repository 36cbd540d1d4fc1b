import hashlib
import json
import random
import re
import shlex
import time
from pathlib import Path

import pytest

import markedgroups.hnn as hnn
import markedgroups.words as words
from markedgroups import experiments
from markedgroups.cli import load_group, main
from markedgroups.experiments import (
    ExperimentReport,
    epsilon_substitution,
    exp_continuity,
    exp_epsilon,
    exp_orbit,
    exp_zmod_limit,
)
from markedgroups.marked import builtin_group, shadow_of
from markedgroups.presentations import (
    ABCHST,
    builtin,
    serialize_presentation,
    zero_sum_coordinates,
)
from markedgroups.words import (
    BudgetExceededError,
    Word,
    concat,
    enumerate_ball,
    exponent_sums,
    free_reduce,
    invert,
    invert_letters,
    parse_word,
    render_word,
    substitute,
)


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
        exp_epsilon([1], 4)


def full_pair_collisions(i, rho):
    """The collision witness of the full double loop over the ball, and
    the coordinate sums and shadow of each pair whose images merge
    trivially."""
    e = builtin_group("E")
    oracle = e.oracle
    sigma = epsilon_substitution(i)
    coordinates = zero_sum_coordinates(builtin("E"))
    ball = list(enumerate_ball(ABCHST, rho))
    images = [substitute(u, sigma) for u in ball]
    fixed = [img.letters == u.letters for img, u in zip(images, ball)]
    keys = [
        (tuple(exponent_sums(img)[k] for k in coordinates),
         shadow_of(e.shadow, img.letters))
        for img in images
    ]
    count, example, merged_pairs = 0, None, []
    for p in range(len(ball)):
        for q in range(p + 1, len(ball)):
            if fixed[p] and fixed[q]:
                continue
            if not oracle.is_trivial(free_reduce(concat(images[p], invert(images[q])))):
                continue
            merged_pairs.append((keys[p], keys[q]))
            if not oracle.is_trivial(free_reduce(concat(ball[p], invert(ball[q])))):
                count += 1
                if example is None:
                    example = [render_word(ball[p]), render_word(ball[q])]
    witness = {"i": i, "rho": rho, "ball_size": len(ball), "collisions": count}
    if example is not None:
        witness["example"] = example
    return witness, merged_pairs


@pytest.mark.parametrize("i", [-2, -1, 0, 1, 2])
def test_exp_epsilon_buckets_match_full_loop(i):
    for rho in (1, 2):
        expected, merged_pairs = full_pair_collisions(i, rho)
        report = exp_epsilon([i], rho)
        assert report.checks[-1].witness == expected
        # every pair that merges to a trivial image shares its bucket; at
        # rho 2 there are such pairs, as h a and a h
        assert merged_pairs or rho == 1
        assert all(key_p == key_q for key_p, key_q in merged_pairs)


def test_self_maps_keep_the_epsilon_bucket_key():
    # exp_epsilon buckets the ball once for every i, by each word's
    # exponent sums in E's coordinates and its shadow: each self-map must
    # keep both, word for word
    e = builtin_group("E")
    coordinates = zero_sum_coordinates(builtin("E"))
    ball = [w.letters for w in enumerate_ball(ABCHST, 3)]
    assert len(ball) == 1597

    def key(letters):
        sums = exponent_sums(Word(ABCHST, letters))
        return [sums[k] for k in coordinates], shadow_of(e.shadow, letters)

    keys = [key(u) for u in ball]
    for i in range(-3, 9):
        sigma = epsilon_substitution(i)
        for u, u_key in zip(ball, keys):
            assert key(sigma.image_letters(u)) == u_key, (i, u)


def test_exp_epsilon_rho_3_finds_a_collision():
    (check,) = [c for c in exp_epsilon([0], 3).checks if c.id == "ball-injectivity-0"]
    # the full double loop over all 1,274,406 pairs gives the same count and
    # first example, in about 26 s on 2 vCPU
    assert check.witness["ball_size"] == 1597
    assert check.witness["collisions"] == 96
    assert check.witness["example"] == ["a h t", "t a h"]
    u, v = (parse_word(w, ABCHST) for w in check.witness["example"])
    oracle = builtin_group("E").oracle
    sigma = epsilon_substitution(0)
    assert not oracle.is_trivial(free_reduce(concat(u, invert(v))))
    assert oracle.is_trivial(
        free_reduce(concat(substitute(u, sigma), invert(substitute(v, sigma))))
    )


def test_check_ms_is_time_since_previous_check(monkeypatch):
    readings = iter([0.0, 0.005, 0.012])
    monkeypatch.setattr(experiments.time, "perf_counter", lambda: next(readings))
    report = ExperimentReport("clock", {})
    report.check("first", "anchor", True, {})
    report.check("second", "anchor", True, {})
    assert [c.ms for c in report.checks] == pytest.approx([5.0, 7.0])
    assert all("ms" not in c for c in report.to_dict(False)["checks"])


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


def test_load_group_coordinates(tmp_path):
    # built-ins and a file copy of E carry E's derived coordinates
    assert load_group("E", 10_000).coordinates == (1, 2, 4, 5)
    assert load_group("G", 10_000).coordinates == (1, 2, 4)
    path = tmp_path / "e.pres"
    path.write_text(serialize_presentation(builtin("E")))
    assert load_group(f"file:{path}", 10_000).coordinates == (1, 2, 4, 5)
    # a one-letter file has its letter as coordinate exactly when it is Z
    for rels in ("", "rel y^3\n", "rel y^10\nrel y^4\n", "rel y^5 = y^2\n"):
        path = tmp_path / "c.pres"
        path.write_text("group C\ngens y\n" + rels)
        group = load_group(f"file:{path}", 10_000)
        assert (group.coordinates == (0,)) == (group.oracle.order is None), rels
        assert group.coordinates in ((), (0,)), rels
    assert load_group("Z", 10_000).coordinates == (0,)
    assert load_group("Z/4", 10_000).coordinates == ()


def test_load_group_file_inherits_symmetries(tmp_path):
    # a file that matches a built-in gets its symmetries with its oracle
    for name in ("B", "ZxB", "G", "E"):
        path = tmp_path / f"{name}.pres"
        path.write_text(serialize_presentation(builtin(name)))
        group = load_group(f"file:{path}", 10_000)
        assert group.symmetries == load_group(name, 10_000).symmetries, name
        assert group.symmetries
    path = tmp_path / "c.pres"
    path.write_text("group C\ngens y\nrel y^3\n")
    assert load_group(f"file:{path}", 10_000).symmetries == ()


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


# a^2 written twice, once inverted, and [b, c] twice in place of B's other
# two relators: <a, b, c | a^2, [b, c]>, in which [a, a^b] is not trivial
NOT_B = "group NotB\ngens a b c\nrel a a\nrel a^-1 a^-1\nrel [b, c]\nrel [c, b]\n"


def test_cli_file_matching_builtin_only_up_to_closure_exits_2(capsys, tmp_path):
    path = tmp_path / "notb.pres"
    path.write_text(NOT_B)
    assert main(["wp", "--group", f"file:{path}", "--word", "[a,a^b]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: no word-problem oracle for presentation 'NotB'"
    ), captured.err


# -- CLI entry point ---------------------------------------------------------


def test_cli_wp_exit_codes(capsys):
    assert main(["wp", "--group", "E", "--word", "[h, a]"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["trivial"] is True
    assert main(["wp", "--group", "E", "--word", "t"]) == 1
    assert main(["wp", "--group", "E", "--word", "t )"]) == 2


def test_cli_wp_syntax_error_column(capsys):
    assert main(["wp", "--group", "E", "--word", "a   !"]) == 2
    assert capsys.readouterr().err == "error: unexpected character '!' (col 5)\n"
    # an error the parser gives no column keeps its message
    assert main(["wp", "--group", "E", "--word", "a^"]) == 2
    assert capsys.readouterr().err == "error: dangling '^'\n"


def _plain_texts(alphabet, relators, rng, count):
    """Random words and products of conjugated relators, unreduced, as
    plain letters: the parser reduces none of them."""
    n = 2 * alphabet.arity

    def letters(length):
        return tuple(rng.randrange(n) for _ in range(length))

    texts = [letters(rng.randrange(40)) for _ in range(count)]
    for _ in range(count):
        product = ()
        for r in rng.choices(relators, k=3):
            u = letters(rng.randrange(4))
            product += invert_letters(u) + (r if rng.random() < 0.5 else invert_letters(r)) + u
        texts.append(product)
    return [render_word(Word(alphabet, w)) for w in texts]


def test_cli_wp_reduces_each_word_once(monkeypatch, capsys):
    # wp reduces its word once, for "reduced", and E folds those letters:
    # neither E's maps nor G's fold reduce a part again
    reduce_letters, calls = words._reduce_letters, []

    def counting(letters):
        calls.append(len(letters))
        return reduce_letters(letters)

    monkeypatch.setattr(words, "_reduce_letters", counting)
    monkeypatch.setattr(hnn, "_reduce_letters", counting)
    relators = [rel.letters for rel in builtin("E").relators]
    for text in _plain_texts(ABCHST, relators, random.Random(5), 10):
        calls.clear()
        main(["wp", "--group", "E", "--word", text])
        assert len(calls) == 1, text
        capsys.readouterr()


def _wp_reference(spec, text, budget):
    """The exit code and stderr of wp, from the oracle's own is_trivial."""
    try:
        group = load_group(spec, budget)
        w = parse_word(text, group.oracle.alphabet, budget=budget)
        return (0 if group.oracle.is_trivial(w) else 1), ""
    except BudgetExceededError as exc:
        return 1, f"error: {exc}\n"


# s^4 h^2 s^-4 is h^32 in G, which commutes with b and t: at a budget of 31
# the first two words are refused for a base part of 32 letters, at 32 they
# are trivial.  The last two are trivial at either budget, as they cancel
# freely, but a fold of their letters as written grows h^32.
_PART_EDGE = [
    "s^4 h^2 s^-4 b s^4 h^-2 s^-4 b^-1",
    "[t, s^4 h^2 s^-4]",
    "s^4 h^2 s^-4 s^4 h^-2 s^-4",
    "t^-1 s^4 h^2 s^-4 t t^-1 s^4 h^-2 s^-4 t",
]


@pytest.mark.parametrize("spec", ["B", "ZxB", "G", "E", "Z", "Z/4", "file:E"])
def test_cli_wp_agrees_with_is_trivial(capsys, tmp_path, spec):
    # wp decides the letters it reduced; the oracle's is_trivial decides
    # the parsed word.  Each text runs at the default budget and at the
    # budget edge of its own length, and G's and E's at the edge of a part.
    if spec == "file:E":
        path = tmp_path / "e.pres"
        path.write_text(serialize_presentation(builtin("E")))
        spec = f"file:{path}"
    alphabet = load_group(spec, 10_000).oracle.alphabet
    # x x^-1 and x^4 stand in for the relators of Z and Z/4
    relators = {"Z": [(0, 1)], "Z/4": [(0,) * 4]}.get(spec)
    if relators is None:
        name = spec if spec in ("B", "ZxB", "G") else "E"
        relators = [rel.letters for rel in builtin(name).relators]
    cases = []
    for text in _plain_texts(alphabet, relators, random.Random(3), 8):
        length = len(parse_word(text, alphabet))
        cases += [(text, 10_000), (text, length), (text, max(length - 1, 0))]
    for text in _PART_EDGE:
        if set(re.findall("[a-z]", text)) <= set(alphabet.names):
            cases += [(text, 31), (text, 32)]
    outcomes = set()
    for text, budget in cases:
        code = main(["--budget", str(budget), "wp", "--group", spec, "--word", text])
        captured = capsys.readouterr()
        assert (code, captured.err) == _wp_reference(spec, text, budget), (text, budget)
        if not captured.err:
            assert json.loads(captured.out)["trivial"] is (code == 0)
        outcomes.add(re.sub(r" \d.*", "", captured.err) or code)
    # trivial and non-trivial words, and refusals at the budget edges
    expected = {0, 1, "error: word expands to\n"}
    if "s" in alphabet.names:
        expected.add("error: base part grew to\n")
    assert outcomes == expected


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


def test_cli_epsilon_negative_index_list(capsys):
    # a list starting with a negative index is a value, not an option
    outputs = []
    for argv in (["--i", "-1,2"], ["--i=-1,2"]):
        assert main(["experiment", "epsilon", *argv, "--no-timing"]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0]["params"]["i"] == [-1, 2]


def test_cli_epsilon_certificate_past_50_steps(capsys):
    # the kernel certificate has 2|i| + 3 steps, 51 at |i| = 24
    for argv in (["--i", "24"], ["--i=-24"]):
        assert main(["experiment", "epsilon", *argv, "--rho", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True


def test_cli_budget_exceeded(capsys):
    assert main(
        ["--budget", "6", "wp", "--group", "G", "--word", "s^-1 h^6 s"]
    ) == 1
    assert "error" in capsys.readouterr().err


def test_cli_usage_error():
    assert main(["experiment", "unknown"]) == 2


def test_cli_zmod_takes_decimal_digits_only(capsys):
    # superscript one is a digit to str.isdigit, but not to int()
    assert main(["ball", "--group", "Z/\u00b9", "--radius", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: Z/N needs a positive integer N, got 'Z/\u00b9'\n", err
    # Arabic-Indic three is a decimal digit, so it reads as Z/3
    assert main(["ball", "--group", "Z/3", "--radius", "3"]) == 0
    z3 = capsys.readouterr().out
    assert main(["ball", "--group", "Z/\u0663", "--radius", "3"]) == 0
    assert capsys.readouterr().out == z3
    # more digits than int() reads: the same usage line, not CPython's
    spec = "Z/" + "9" * 5000
    assert main(["ball", "--group", spec, "--radius", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: Z/N needs a positive integer N, got {spec!r}\n"


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as err:
        main(["ball", "--help"])
    assert err.value.code == 0
    assert "--radius" in capsys.readouterr().out


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
        ["ball", "--group", "Z", "--radius", "1", "--bogus"],
        ["ball", "--group", "Z", "--radius", "x"],
        [],
        ["condense", "--i", "1", "--radius", "2", "--workers", "4"],
        ["experiment", "orbit", "--workers", "2"],
        ["experiment", "zmod-limit", "--imax", "101"],
        ["experiment", "epsilon", "--i", "", "--rho", "1"],
        # a malformed index is still a usage error
        ["condense", "--i", "1x", "--radius", "1"],
        ["chabauty", "--rho", "1", "--i", "1x"],
        ["experiment", "epsilon", "--i", "1,x", "--rho", "0"],
        # argparse stores --opt=-- as an empty list
        ["ball", "--group", "Z", "--radius=--"],
        ["chabauty", "--rho=--"],
        ["experiment", "epsilon", "--i=--"],
        ["condense", "--i=--", "--radius", "1"],
        ["--budget=--", "wp", "--group", "E", "--word", "a"],
        # a --json file under a missing directory: written before anything
        # is printed, so stdout stays empty
        ["wp", "--group", "E", "--word", "a", "--json", "{missing}"],
        ["ball", "--group", "Z", "--radius", "1", "--json", "{missing}"],
        ["compare", "--group", "Z", "--other", "Z", "--max-radius", "1",
         "--json", "{missing}"],
        ["experiment", "zmod-limit", "--imax", "2", "--json", "{missing}"],
        # a negative radius is refused where a walk starts
        ["chabauty", "--rho", "-1"],
        ["experiment", "epsilon", "--i", "1", "--rho", "-1"],
    ],
)
def test_cli_bad_arguments_exit_2(capsys, tmp_path, argv):
    missing = str(tmp_path / "missing" / "x.json")
    assert main([arg.replace("{missing}", missing) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command",
    [
        "ball --group Z/4 --radius 1200",
        "ball --group Z --radius 2500",
        "compare --group Z/4 --other Z/4 --max-radius 1500",
        "ball --group E --radius 600",  # refused before any sphere is walked
    ],
)
def test_cli_long_radius_exit_2(capsys, command):
    # the walk recurses once per letter, so radii above 500 are refused
    assert main(command.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: radius must be at most 500, got "), err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_chabauty_radius_cap_first(capsys):
    # the cap is checked before the ball is sized, which takes N steps
    start = time.perf_counter()
    assert main(["chabauty", "--rho", "100000"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == "error: radius must be at most 500, got 100000\n"


def test_cli_radius_cap(capsys):
    assert main(["ball", "--group", "Z/4", "--radius", "500"]) == 0
    assert capsys.readouterr().out.startswith("# group=Z/4 radius=500 count=251 ")
    # a compare that stops at an earlier disagreement never meets the cap
    assert main("compare --group Z/5 --other Z --max-radius 1500".split()) == 0
    assert json.loads(capsys.readouterr().out)["agreement_radius"] == 4


# the last exponent has more digits than int() reads
@pytest.mark.parametrize(
    "word",
    [
        "a^1000000000",
        "(a^9999)^(b^9999)",
        pytest.param("a^" + "9" * 5000, id="a^9x5000"),
    ],
)
def test_cli_parse_budget(capsys, word):
    start = time.perf_counter()
    assert main(["wp", "--group", "E", "--word", word]) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: word expands to") and err.count("\n") == 1


def test_cli_power_of_empty_word(capsys):
    for huge in ("1^99999999999999999999999", "1^" + "9" * 5000):
        assert main(["wp", "--group", "E", "--word", huge]) == 0
        assert '"trivial": true' in capsys.readouterr().out


# Words within the default budget whose module parts carry (1+x)^k for large
# k. The first four have a non-zero c exponent sum, so they are non-trivial
# in the abelianization. In the last two, a^(c^2048) = (1+x)^2048 =
# 1 + x^2048 over GF(2), which a^(b^2048) a cancels; a^(b^2047) a leaves
# x^2048 + x^2047.
@pytest.mark.parametrize(
    "group, word, trivial",
    [
        ("B", "c^-5000 a^5000", False),
        ("B", "c^-5000 (a c)^2500", False),
        ("B", "c^5000 a^5000", False),
        ("E", "c^-3000 (t^-1 h^2 t a)^700", False),
        ("B", "c^-2048 a c^2048 b^-2048 a b^2048 a", True),
        ("B", "c^-2048 a c^2048 b^-2047 a b^2047 a", False),
    ],
)
def test_cli_budget_edge_verdicts(capsys, group, word, trivial):
    assert main(["wp", "--group", group, "--word", word]) == (0 if trivial else 1)
    assert json.loads(capsys.readouterr().out)["trivial"] is trivial


@pytest.mark.parametrize(
    "text, message",
    [
        ("group\ngens a\n", "missing group name (line 1)"),
        ("group X\ngens a\ngens b\n", "duplicate gens line (line 3)"),
        ("group X\ngens 1a\n", "invalid generator name '1a' (line 2)"),
        ("group X\ngens a a\n", "duplicate generator names in ('a', 'a') (line 2)"),
        ("group X\n", "no gens line"),
    ],
)
def test_cli_presentation_file_errors_exit_2(capsys, tmp_path, text, message):
    path = tmp_path / "bad.pres"
    path.write_text(text)
    assert main(["wp", "--group", f"file:{path}", "--word", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n", captured.err


def test_cli_subgroup_line_exits_2(capsys, tmp_path):
    path = tmp_path / "g.pres"
    path.write_text(serialize_presentation(builtin("G")) + "subgroup H2 gen h^2\n")
    assert main(["ball", "--group", f"file:{path}", "--radius", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: unknown keyword 'subgroup' (line 11)\n", err


def test_cli_presentation_file_budget(capsys, tmp_path):
    path = tmp_path / "big.pres"
    path.write_text("group X\ngens x\nrel x^1000000000\n")
    start = time.perf_counter()
    assert main(["ball", "--group", f"file:{path}", "--radius", "1"]) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: word expands to") and "(line 3)" in err, err
    assert err.count("\n") == 1


def test_cli_deep_nesting_exit_2(capsys, tmp_path):
    deep = "(" * 1000 + "x" + ")" * 1000
    assert main(["wp", "--group", "E", "--word", deep.replace("x", "a")]) == 2
    err = capsys.readouterr().err
    assert err == "error: brackets nested deeper than 100 (col 101)\n", err
    path = tmp_path / "deep.pres"
    path.write_text(f"group X\ngens x\nrel {deep}\n")
    assert main(["ball", "--group", f"file:{path}", "--radius", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: brackets nested deeper than 100 (line 3"), err
    assert err.count("\n") == 1
    limit = "(" * 100 + "a a^-1" + ")" * 100
    assert main(["wp", "--group", "E", "--word", limit]) == 0
    assert '"trivial": true' in capsys.readouterr().out


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
        # more digits than int() reads: past any budget, like such an exponent
        ["condense", "--i", "9" * 5000, "--radius", "1"],
        ["condense", "--i=-" + "9" * 5000, "--radius", "1"],
        ["chabauty", "--rho", "1", "--i", "9" * 5000],
        ["chabauty", "--rho", "1", "--i=-" + "9" * 5000],
        ["experiment", "epsilon", "--i", "9" * 5000, "--rho", "0"],
        ["experiment", "epsilon", "--i=-" + "9" * 5000, "--rho", "0"],
    ],
)
def test_cli_index_budget(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if any(len(arg) > 4300 for arg in argv):
        assert err == "error: word expands to at least 10^4999 letters (budget 10000)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--budget", "2", "experiment", "orbit", "--rho", "1"],
        ["--budget", "2", "experiment", "continuity", "--radius", "2"],
        ["--budget", "2", "experiment", "epsilon", "--i", "3", "--rho", "0"],
        ["--budget", "100", "experiment", "epsilon", "--i", "1000000000",
         "--rho", "0"],
    ],
)
def test_cli_experiment_budget(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"(budget {argv[1]})" in err, err


@pytest.mark.parametrize(
    "argv, budget",
    [
        (["experiment", "orbit", "--rho", "2"], 8),
        (["experiment", "epsilon", "--i", "3", "--rho", "3"], 30),
    ],
)
def test_cli_experiment_budget_measures_reduced_products(capsys, argv, budget):
    # each product these experiments decide is measured after its free
    # reduction: (h^2)^(s b) (h a^b)^-1 has 8 letters reduced, 10 as
    # written, and epsilon's longest merged pair at i = 3 has 30 and 38
    argv = argv + ["--no-timing"]
    assert main(["--budget", str(budget), *argv]) == 0
    at_edge = capsys.readouterr().out
    assert main(argv) == 0
    assert at_edge == capsys.readouterr().out
    assert main(["--budget", str(budget - 1), *argv]) == 1
    err = capsys.readouterr().err
    assert err == f"error: input word has {budget} letters (budget {budget - 1})\n"


# SHA-256 of stdout for fixed commands, so that a change to rendering, word
# order or a verdict fails in the fast tests, not only in the benchmark.
PINNED_OUTPUT = {
    "experiment zmod-limit --imax 12 --no-timing":
        "9294aacfefffcf047569301ac53a9fb9001a8b1d3e6e77f3524d3a2cd16abe18",
    "experiment continuity --radius 3 --no-timing":
        "ac89e3d73fd0f1b12c31b0ef840f93a9c17422e67946df97b1682051535c9995",
    "experiment continuity --radius 4 --no-timing":
        "3f4f2f5fe9c80c71038eae16cb87922c8e494256dede6dc52f1dcbeceffb25d9",
    "experiment orbit --rho 3 --no-timing":
        "1e4e08b4d6829779986ebaf882ebf980abff98cf15bb47d1ffa24cb020567b99",
    "experiment orbit --rho 2 --no-timing":
        "fbb25d4c69a2cfa751550d4e3d8851ad5bed4f88fe29cb6ee7d591ba0159160f",
    "experiment epsilon --i 1,2 --rho 1 --no-timing":
        "99303092235d9e35f01dae8d7b511775efff771103d6a515c12584ee0134741b",
    "experiment epsilon --i 1,2,3,4,5,6,7,8 --rho 2 --no-timing":
        "9077201621414e4e2a1a164d901c92606cd7a1a26ed7c25d88e830446edb8c63",
    "experiment epsilon --i=-2,-1,0,1,2 --rho 2 --no-timing":
        "2735fa128d1b367cf4f5e531b79ff38dc8c275df77f612a01b7ba5c63f18ccd4",
    "chabauty --rho 2":
        "93160d08c7bd35fb685c5b73f09e9b341ff661a32d37d3dd188213c432727944",
    "condense --i 1 --radius 3":
        "3c267e3fc60821539f25ae30111ccb523922853c4e03bb4d4b636c0fe6efa489",
    "ball --group G --radius 4":
        "e8651a1b12ac564b429a8abcf8699c286e3bb410a8bd7bb117bb7f755a7804ec",
    "ball --group E --radius 5":
        "0c427b66108483419e7336c59ace21c91b3d43e424f71a0211ad011176a0d626",
    "wp --group E --word [t,h^2]":
        "460d8fff07a968685514ddf589e9ed33328ff42c7317d2f4c38d933d2b9e34c0",
    "ball --group ZxB --radius 4":
        "64cc56f88fc1c27de6ea9d0630621881ffae5fdff2a4f018502ea5b2ee05037c",
}


@pytest.mark.parametrize("command", sorted(PINNED_OUTPUT))
def test_cli_output_pinned(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUT[command]


@pytest.mark.parametrize("argv", [["ball", "--group", "E", "--radius", "3"]])
def test_cli_workers_flag_has_no_effect(capsys, argv):
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--workers", "4"]) == 0
    assert capsys.readouterr().out == plain


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(language):
    return re.findall(
        rf"^```{language}\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL
    )


def test_readme_examples(capsys):
    commands = [
        line
        for block in readme_blocks("sh")
        for line in block.splitlines()
        if line.startswith("markedgroups ")
    ]
    assert commands
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
    (example,) = readme_blocks("python")
    exec(example, {})
