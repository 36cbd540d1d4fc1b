"""Command-line interface: word problems, balls, comparisons, experiments.

All output is JSON (or the line-oriented ball export); exit code 0 means
every check passed, 1 means a negative verdict, 2 a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .experiments import (
    exp_continuity,
    exp_epsilon,
    exp_orbit,
    exp_zmod_limit,
)
from .hnn import BudgetExceededError
from .marked import (
    CyclicOracle,
    MarkedGroup,
    builtin_group,
    condensed_pair,
    marked_Z,
    marked_Zmod,
    max_agreement,
    orbit_agreement,
    relation_ball,
)
from .presentations import (
    builtin,
    parse_presentation,
    same_relator_set,
    zero_sum_coordinates,
)
from .words import (
    DEFAULT_BUDGET,
    WordSyntaxError,
    exponent_sum,
    free_reduce,
    parse_int,
    parse_word,
    render_word,
)


class UsageError(SystemExit):
    """A bad argument; ``main`` prints it as one line and exits 2."""


class _Parser(argparse.ArgumentParser):
    """Raises argparse's errors as UsageError instead of printing a usage
    block and exiting; subparsers inherit the class.

    argparse takes an argument starting with '-' for an option unless it
    looks like a negative number; a list such as ``-1,2`` counts as one
    here, so ``--i -1,2`` reads as a value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")

    def error(self, message: str):
        raise UsageError(message)


def load_group(spec: str, budget: int) -> MarkedGroup:
    """Resolve a group spec: B|ZxB|G|E, Z, Z/N, or file:PATH.

    File presentations get an oracle only when they match a decidable
    family: a built-in up to relator rotation/inversion, or a one-generator
    presentation (cyclic).  Coordinates come from the presentation.
    """
    if spec in ("B", "ZxB", "G", "E"):
        return builtin_group(spec, budget)
    if spec == "Z":
        return marked_Z()
    if spec.startswith("Z/"):
        try:
            n = int(spec[2:]) if spec[2:].isdecimal() else 0
        except ValueError:  # more digits than int() reads
            n = 0
        if n < 1:
            raise UsageError(f"Z/N needs a positive integer N, got {spec!r}")
        return marked_Zmod(n)
    if spec.startswith("file:"):
        pres = parse_presentation(Path(spec[5:]).read_text(), budget=budget)
        for name in ("B", "ZxB", "G", "E"):
            if same_relator_set(pres, builtin(name)):
                return replace(builtin_group(name, budget), name=pres.name)
        if pres.alphabet.arity == 1:
            order = 0
            for rel in pres.relators:
                order = math.gcd(order, exponent_sum(rel.letters))
            oracle = CyclicOracle(abs(order) or None, pres.alphabet)
            return MarkedGroup(pres.name, oracle, zero_sum_coordinates(pres))
        raise UsageError(
            f"no word-problem oracle for presentation {pres.name!r}; "
            "only the built-in families and cyclic groups are decidable here"
        )
    raise UsageError(f"unknown group spec {spec!r}")


def _index(text: str, budget: int) -> int:
    """One value of --i.  As with an exponent in a word, a number too long
    for int() is past any budget."""
    try:
        return parse_int(text, budget)
    except ValueError:
        raise UsageError(f"--i takes integers, got {text!r}") from None


def _emit(payload: dict, json_path: Optional[str]) -> None:
    """Write the --json file, then print: a path that cannot be written
    exits 2 with nothing on stdout."""
    text = json.dumps(payload, indent=2)
    if json_path:
        Path(json_path).write_text(text + "\n")
    print(text)


def cmd_wp(args: argparse.Namespace) -> int:
    group = load_group(args.group, args.budget)
    try:
        w = parse_word(args.word, group.oracle.alphabet, budget=args.budget)
    except WordSyntaxError as exc:
        if exc.col is None:
            raise
        # the message names a column only together with a line
        raise UsageError(f"{exc} (col {exc.col})") from None
    # parse_word checked the alphabet and the budget, so the oracle
    # decides the letters reduced here, with no second reduction
    w = free_reduce(w)
    trivial = group.oracle.decide(w.letters)
    _emit(
        {"group": group.name, "word": args.word,
         "reduced": render_word(w), "trivial": trivial},
        args.json,
    )
    return 0 if trivial else 1


def cmd_ball(args: argparse.Namespace) -> int:
    group = load_group(args.group, args.budget)
    ball = relation_ball(group, args.radius)
    if args.json:
        Path(args.json).write_text(
            json.dumps(
                {
                    "group": group.name,
                    "radius": ball.radius,
                    "count": ball.count,
                    "fingerprint": ball.fingerprint,
                },
                indent=2,
            )
            + "\n"
        )
    print(ball.export(group.name), end="")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    left = load_group(args.group, args.budget)
    right = load_group(args.other, args.budget)
    agreement = max_agreement(left, right, args.max_radius)
    _emit(
        {
            "left": left.name,
            "right": right.name,
            "max_radius": args.max_radius,
            "agreement_radius": agreement.radius,
            "saturated": agreement.saturated,
        },
        args.json,
    )
    return 0


def cmd_chabauty(args: argparse.Namespace) -> int:
    i = None if args.i is None else _index(args.i, args.budget)
    orbit = orbit_agreement(args.rho, builtin_group("G", args.budget), i)
    _emit(
        {
            "rho": args.rho,
            "i": orbit.i,
            "subgroups": ["H2", orbit.k_point.label],
            "ball_size": orbit.ball_size,
            "agree": orbit.agree,
        },
        args.json,
    )
    return 0 if orbit.agree else 1


def cmd_condense(args: argparse.Namespace) -> int:
    i = _index(args.i, args.budget)
    extension_h, extension_k = condensed_pair(i, builtin_group("G", args.budget))
    ball_h = relation_ball(extension_h, args.radius)
    ball_k = relation_ball(extension_k, args.radius)
    coincide = ball_h.fingerprint == ball_k.fingerprint
    _emit(
        {
            "i": i,
            "radius": args.radius,
            "left": extension_h.name,
            "right": extension_k.name,
            "fingerprint_left": ball_h.fingerprint,
            "fingerprint_right": ball_k.fingerprint,
            "coincide": coincide,
        },
        args.json,
    )
    return 0 if coincide else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    name = args.name
    if name == "zmod-limit":
        report = exp_zmod_limit(args.imax)
    elif name == "orbit":
        report = exp_orbit(args.rho, budget=args.budget)
    elif name == "continuity":
        report = exp_continuity(args.radius, budget=args.budget)
    elif name == "epsilon":
        i_list = [_index(part, args.budget) for part in args.i.split(",")]
        report = exp_epsilon(i_list, args.rho, budget=args.budget)
    _emit(report.to_dict(include_timing=not args.no_timing), args.json)
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="markedgroups",
        description="Exact word problems, relation balls, and subgroup "
        "experiments for the built-in extension tower.",
    )
    parser.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="letter budget for parsing and reductions (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wp", help="decide triviality of a word")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_wp)

    p = sub.add_parser("ball", help="export a relation ball")
    p.add_argument("--group", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; has no effect (scans run in one thread)",
    )
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_ball)

    p = sub.add_parser("compare", help="maximal agreement radius of two groups")
    p.add_argument("--group", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--max-radius", type=int, required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser(
        "chabauty", help="compare H2 with a conjugate on a finite ball"
    )
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--i", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_chabauty)

    p = sub.add_parser(
        "condense", help="compare relation balls of two extensions"
    )
    p.add_argument("--i", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_condense)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument(
        "name", choices=["zmod-limit", "orbit", "continuity", "epsilon"]
    )
    p.add_argument("--imax", type=int, default=10)
    p.add_argument("--rho", type=int, default=1)
    p.add_argument("--radius", type=int, default=2)
    p.add_argument(
        "--i", default="1",
        help="comma-separated index list, such as 1,2,3 or --i=-1,2 (default 1)",
    )
    p.add_argument("--json", default=None)
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, value in vars(args).items():
            if isinstance(value, list):  # argparse reads --opt=-- as []
                raise UsageError(
                    f"argument --{name.replace('_', '-')}: expected one argument"
                )
        if args.budget < 0:
            raise UsageError(f"--budget must be non-negative, got {args.budget}")
        if getattr(args, "workers", 1) < 1:
            raise UsageError(f"--workers must be at least 1, got {args.workers}")
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError, OSError) as exc:
        # bad specs, radii, indices and word syntax; missing files
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
