"""The workloads: the ``cli.main`` calls of a pass and their answer checks.

Every check compares the program's output with a reference that does not
come from the code under test: values pinned when the benchmark was
defined, labels from the ``wp-long`` construction, and structural facts
about the relation ball of E.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Callable

# Pinned at definition: the relation ball of E at radius 5.  The ball at
# radius 4, and that of the extension condense(G, <h^2>) at radius 4, were
# observed to hold the same words.
BALL_COUNT = 65
BALL_FINGERPRINT = "5e6d3f74fd70bce345e9c616509fe00543474dca4c138890f0d338b11eb87a80"
CONTINUITY_I = 2
EPSILON_I = (1, 2, 3, 4, 5, 6, 7, 8)
EPSILON_CHECKS = ("well-defined", "surjective", "kernel-witness", "ball-injectivity")
CONTINUITY_CHECKS = ("relation-balls-coincide", "control-distinguish")

# E's abelianization is free abelian on b, c, s, t (a and h die), so every
# trivial word has exponent sum 0 in each of them.  Canonical letter
# indices: a=1, b=2, c=3, h=4, s=5, t=6.
ABELIAN_LETTERS = (2, 3, 5, 6)


def ball_size(arity: int, radius: int) -> int:
    """Number of freely reduced words of length <= radius."""
    return 1 + sum(2 * arity * (2 * arity - 1) ** (k - 1) for k in range(1, radius + 1))


# tracemalloc slows a pass about five times; the wp-long memory pass takes
# every fourth word, which keeps its per-word medians at a fourth of the cost.
MEMORY_STRIDE = {"wp-long": 4}

# The built-in presentations a pass's set-up builds.
GROUPS = {"ball-E": ("E",), "wp-long": ("E",), "experiments": ("E", "G")}

# Words a pass covers or decides; words_per_s divides this by wall_s.  For
# wp-long it is the stream length.
WORDS = {
    "ball-E": ball_size(6, 5),
    "experiments": (
        # epsilon: each i compares every pair of words in the radius-2 ball of E
        len(EPSILON_I) * ball_size(6, 2) * (ball_size(6, 2) - 1) // 2
        # continuity: the escape-index ball of G and two relation balls
        + ball_size(5, 4) + 2 * ball_size(6, 4)
    ),
}


def calls(workload: str, scratch: Path, stream) -> list[tuple[list[str], Callable[..., list[str]]]]:
    """The ``cli.main`` calls of one pass, each with the check of its answer.

    A check takes the call's exit code, standard output and ``--json``
    report and returns the problems it finds (empty if none).
    """
    if workload == "ball-E":
        return [(["ball", "--group", "E", "--radius", "5", "--workers", "2",
                  "--json", str(scratch / "ball.json")], check_ball)]
    if workload == "wp-long":
        return [(["wp", "--group", "E", "--word", text], functools.partial(check_word, label))
                for text, label in stream]
    if workload == "experiments":
        return [
            (["experiment", "epsilon", "--i", ",".join(map(str, EPSILON_I)),
              "--rho", "2", "--json", str(scratch / "epsilon.json")], check_epsilon),
            (["experiment", "continuity", "--radius", "4",
              "--json", str(scratch / "continuity.json")], check_continuity),
        ]
    raise KeyError(workload)


def _parse_canonical(line: str) -> tuple[tuple[int, int], ...]:
    if line == "1":
        return ()
    out = []
    for token in line.split():
        sign = -1 if token.endswith("^-1") else 1
        out.append((int(token[1:].split("^")[0]), sign))
    return tuple(out)


def check_ball(rc: int, export: str, summary: dict) -> list[str]:
    """Problems with one ``ball --group E --radius 5`` pass (empty if none)."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if summary.get("count") != BALL_COUNT:
        problems.append(f"count {summary.get('count')} != {BALL_COUNT}")
    if summary.get("fingerprint") != BALL_FINGERPRINT:
        problems.append(f"fingerprint {summary.get('fingerprint')} != pinned")
    lines = export.splitlines()
    if not lines or not lines[0].startswith("#"):
        return problems + ["export has no header line"]
    body = lines[1:]
    digest = hashlib.sha256("\n".join(body).encode()).hexdigest()
    if digest != BALL_FINGERPRINT or len(body) != BALL_COUNT:
        problems.append("exported words do not hash to the pinned fingerprint")
    words = {_parse_canonical(line) for line in body}
    if () not in words:
        problems.append("identity missing from the ball")
    for w in words:
        # An observation pinned with the ball, not a fact about E: the
        # relator a^c = a a^b has odd length.
        if len(w) % 2:
            problems.append(f"odd-length word {w}")
        if tuple((i, -s) for i, s in reversed(w)) not in words:
            problems.append(f"ball not closed under inversion at {w}")
        for letter in ABELIAN_LETTERS:
            if sum(s for i, s in w if i == letter):
                problems.append(f"word {w} has non-zero exponent sum in x{letter}")
    return problems


def _checks_by_prefix(report: dict) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for check in report.get("checks", []):
        prefix = check["id"].rstrip("-0123456789")
        out.setdefault(prefix, []).append(check)
    return out


def check_epsilon(rc: int, stdout: str, report: dict) -> list[str]:
    problems = []
    if rc != 0 or report.get("pass") is not True:
        problems.append(f"exit code {rc}, pass={report.get('pass')}")
    groups = _checks_by_prefix(report)
    for prefix in EPSILON_CHECKS:
        ids = sorted(c["witness"]["i"] for c in groups.get(prefix, []))
        if ids != sorted(EPSILON_I):
            problems.append(f"{prefix} ran for i={ids}")
    for check in report.get("checks", []):
        if check["pass"] is not True:
            problems.append(f"check {check['id']} failed")
    for check in groups.get("ball-injectivity", []):
        if check["witness"].get("collisions") != 0:
            problems.append(f"{check['id']}: {check['witness'].get('collisions')} collisions")
    return problems


def check_continuity(rc: int, stdout: str, report: dict) -> list[str]:
    problems = []
    if rc != 0 or report.get("pass") is not True:
        problems.append(f"exit code {rc}, pass={report.get('pass')}")
    if report.get("params", {}).get("i") != CONTINUITY_I:
        problems.append(f"escape index {report.get('params', {}).get('i')} != {CONTINUITY_I}")
    groups = _checks_by_prefix(report)
    for prefix in CONTINUITY_CHECKS:
        if [c["pass"] for c in groups.get(prefix, [])] != [True]:
            problems.append(f"check {prefix} missing or failed")
    for check in groups.get("relation-balls-coincide", []):
        w = check["witness"]
        if (w.get("count_h"), w.get("count_k")) != (BALL_COUNT, BALL_COUNT):
            problems.append(f"counts {w.get('count_h')}, {w.get('count_k')} != {BALL_COUNT}")
        if (w.get("fingerprint_h"), w.get("fingerprint_k")) != (BALL_FINGERPRINT,) * 2:
            problems.append("fingerprints differ from the pinned value")
    return problems


def check_word(expected: bool, rc: int, stdout: str, report: None) -> list[str]:
    """One ``wp`` call: the JSON ``trivial`` field must match the label.

    The exit code alone does not decide: a BudgetExceededError also exits 1.
    """
    try:
        verdict = json.loads(stdout)["trivial"]
    except (ValueError, KeyError, TypeError):
        verdict = None
    if verdict is not expected:
        return [f"verdict {verdict!r} != label {expected} (exit code {rc})"]
    if rc != (0 if expected else 1):
        return [f"exit code {rc} disagrees with verdict {verdict}"]
    return []
