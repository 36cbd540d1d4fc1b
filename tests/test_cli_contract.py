"""A random argv fuzzer for the CLI contract.

``main`` never lets an exception escape and exits 0, 1 or 2.  An error
(exit 1 or 2) prints exactly one ``error:`` line on stderr and nothing on
stdout; exit 2 is always such an error.  Otherwise the answer, JSON or a
ball export, is on stdout and stderr is empty.  Radii stay at 4 or less,
or above the cap of 500, and the budget is small, so every example runs
in milliseconds.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markedgroups.cli import main

LONG = "9" * 5000  # more digits than int() reads
WIDE = "1" + "0" * 29
# values any option may be given
JUNK = ["--", "", " ", "-", "+", "+1", "x", "0", "-0", "٣", "²", WIDE, LONG,
        "-" + LONG, "1,2", "-1,2", "1,,2"]
GROUPS = ["B", "ZxB", "G", "E", "Z", "Z/6", "Z/0", "Z/٣", "Z/" + WIDE, "Z/" + LONG,
          "nope", "file:{missing}", "file:{dir}", "file:{bad}", "file:{deep}",
          "file:{cyclic}"]
WORDS = ["a", "[t, h^2]", "h^2 h^-2", "t^-1 h t", "(a b a^-1)^-3", "b^a c", "q",
         "a^99999", "1^" + LONG, "a^" + LONG, "(", "a^", "a !", "(" * 120 + "a" + ")" * 120]
RADII = ["0", "1", "2", "3", "4", "-1", "501", "100000"]
INDICES = ["0", "1", "-2", "3", "1,2", "-1,0,2", WIDE, LONG, "-" + LONG]
JSON = ["{missing}/x.json", "{dir}", "{dir}/out.json"]

# each subcommand's options, with the values drawn for them; compare walks
# until two groups disagree, so its radius stays small
COMMANDS = {
    "wp": {"--group": GROUPS, "--word": WORDS, "--json": JSON},
    "ball": {"--group": GROUPS, "--radius": RADII, "--workers": ["1", "4", "0"],
             "--json": JSON},
    "compare": {"--group": GROUPS, "--other": GROUPS,
                "--max-radius": ["0", "1", "3", "4", "-1"], "--json": JSON},
    "chabauty": {"--rho": RADII, "--i": INDICES, "--json": JSON},
    "condense": {"--i": INDICES, "--radius": RADII, "--json": JSON},
    "experiment": {"--imax": ["1", "2", "5", "12", "101"],
                   "--rho": ["0", "1", "2", "4", "-1", "501"], "--radius": RADII,
                   "--i": INDICES, "--json": JSON, "--no-timing": None},
}
REQUIRED = {"wp": {"--group", "--word"}, "ball": {"--group", "--radius"},
            "compare": {"--group", "--other", "--max-radius"},
            "chabauty": {"--rho"}, "condense": {"--i", "--radius"}, "experiment": set()}
EXPERIMENTS = ["zmod-limit", "orbit", "continuity", "epsilon", "nope"]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    files = {"bad": "group X\ngens 1a\n", "deep": f"group X\ngens x\nrel {'(' * 200}x\n",
             "cyclic": "group C\ngens x\nrel x^5\n"}
    for name, text in files.items():
        (root / f"{name}.pres").write_text(text)
    places = {name: str(root / f"{name}.pres") for name in files}
    return {**places, "missing": str(root / "missing"), "dir": str(root)}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    if command == "experiment":
        argv.append(draw(st.sampled_from(EXPERIMENTS)))
    options = COMMANDS[command]
    for option in draw(st.permutations(sorted(options))):
        # a required option is left out one time in 16, any other half the time
        if draw(st.integers(0, 15)) < (1 if option in REQUIRED[command] else 8):
            continue
        if options[option] is None:
            argv.append(option)
            continue
        # one value in four comes from the junk pool, except for a --json
        # path, which would write junk files to the working directory
        pool = options[option]
        if option != "--json" and draw(st.integers(0, 3)) == 0:
            pool = pool + JUNK
        value = draw(st.sampled_from(pool))
        argv += [f"{option}={value}"] if draw(st.booleans()) else [option, value]
    budget = draw(st.sampled_from(["0", "5", "50"]))
    return ["--budget", budget] + argv


@settings(max_examples=250, deadline=2000, derandomize=True)
@given(argv=argvs())
def test_cli_contract(paths, argv):
    for name, place in paths.items():
        argv = [arg.replace(f"{{{name}}}", place) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if err or code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert code != 0 and out == "", (argv, code, out)
    elif argv[2] == "ball":
        assert out.startswith("# group="), (argv, out)
    else:
        json.loads(out)
