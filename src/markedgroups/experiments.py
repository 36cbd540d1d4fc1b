"""Named, reproducible desk-scale experiments with JSON reports.

Each experiment is deterministic given its parameters: identical reports
(modulo timing fields) from run to run.  Every check
carries a human-readable anchor naming the claim it verifies, a verdict,
and concrete witness data.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Iterable

from .hnn import DEFAULT_BUDGET
from .marked import (
    builtin_group,
    condensed_pair,
    escape_index,
    escape_words,
    marked_Z,
    marked_Zmod,
    max_agreement,
    orbit_agreement,
    relation_ball,
    shadow_of,
)
from .presentations import (
    ABCHS,
    ABCHST,
    builtin,
    conjugation_substitution,
)
from .rewriting import RewriteRule, TraceStep, run_trace
from .words import (
    Word,
    _reduce_letters,
    _walk,
    _word,
    check_budget,
    commutator,
    conjugate,
    gen,
    invert,
    invert_letters,
    parse_word,
    render_word,
    substitute,
)


@dataclass
class Check:
    id: str
    anchor: str
    passed: bool
    witness: dict[str, Any]
    ms: float

    def to_dict(self, include_timing: bool = True) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "anchor": self.anchor,
            "pass": self.passed,
            "witness": self.witness,
        }
        if include_timing:
            out["ms"] = round(self.ms, 3)
        return out


@dataclass
class ExperimentReport:
    """The checks of one experiment run, in order.  A check's ``ms`` is
    the time since the previous check was added, or since the report was
    made for the first check."""

    experiment: str
    params: dict[str, Any]
    checks: list[Check] = field(default_factory=list)
    _since: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._since = time.perf_counter()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(
        self, check_id: str, anchor: str, passed: bool, witness: dict[str, Any]
    ) -> Check:
        now = time.perf_counter()
        check = Check(check_id, anchor, passed, witness, (now - self._since) * 1000.0)
        self._since = now
        self.checks.append(check)
        return check

    def to_dict(self, include_timing: bool = True) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "checks": [c.to_dict(include_timing) for c in self.checks],
            "pass": self.passed,
        }

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2)


# ---------------------------------------------------------------------------
# Convergence of cyclic quotients.
# ---------------------------------------------------------------------------


def exp_zmod_limit(i_max: int) -> ExperimentReport:
    """Z/i and Z, marked by their canonical generator, agree at radius
    exactly i-1; the bound is sharp because x^i dies only on one side.
    The cost grows as i_max^3, so i_max is capped at 100."""
    if not 2 <= i_max <= 100:
        raise ValueError(f"i_max must be between 2 and 100, got {i_max}")
    z = marked_Z()
    report = ExperimentReport("zmod-limit", {"imax": i_max})
    for i in range(2, i_max + 1):
        agreement = max_agreement(marked_Zmod(i), z, i + 1)
        report.check(
            f"zmod-{i}",
            f"Z/{i} and Z agree at radius exactly {i - 1}",
            agreement == (i - 1, False),
            {"i": i, "agreement_radius": agreement.radius,
             "saturated": agreement.saturated, "expected": i - 1},
        )
    return report


# ---------------------------------------------------------------------------
# The orbit of <h^2> accumulates on itself.
# ---------------------------------------------------------------------------


def exp_orbit(rho: int, *, budget: int = DEFAULT_BUDGET) -> ExperimentReport:
    """For the finite set F = ball of radius rho in G, find a conjugate
    of H = <h^2> that meets F exactly as H does yet differs from H."""
    if rho not in (1, 2, 3):
        raise ValueError("rho must be 1, 2 or 3")
    group = builtin_group("G", budget)
    orbit = orbit_agreement(rho, group)
    i = orbit.i
    sb, witness = escape_words(i, ABCHS)
    report = ExperimentReport(
        "orbit", {"rho": rho, "i": i, "conjugator": render_word(orbit.conjugator)}
    )

    report.check(
        "chabauty-agree",
        "H and gHg^-1 intersect the radius-rho ball identically",
        orbit.agree,
        {"ball_size": orbit.ball_size, "i": i},
    )
    report.check(
        "distinct-subgroup",
        "h a^(b^i) lies in gHg^-1 but not in H",
        orbit.k_point(witness) and not orbit.h_point(witness),
        {"witness": render_word(witness)},
    )
    image = conjugate(gen(ABCHS, "h") ** 2, sb)
    report.check(
        "conjugate-identity",
        "(h^2)^(s b^i) equals h a^(b^i) in G",
        group.oracle.decide((image * invert(witness)).letters),
        {"identity": f"(h^2)^(s b^{i}) = {render_word(witness)}"},
    )
    return report


# ---------------------------------------------------------------------------
# Continuity and injectivity of the condensation map, desk instance.
# ---------------------------------------------------------------------------


def exp_continuity(r: int, *, budget: int = DEFAULT_BUDGET) -> ExperimentReport:
    """Relation balls of the extensions over H and over its escaping
    conjugate coincide at radius r; the i=0 conjugate is separated by a
    short explicit word."""
    if r not in (2, 3, 4):
        raise ValueError("r must be 2, 3 or 4")
    group = builtin_group("G", budget)
    # outside the kernel of G's coordinates no word is in A (orbit_agreement)
    i = escape_index(_walk(ABCHS, range(r + 1), group.coordinates), group.oracle)
    report = ExperimentReport("continuity", {"r": r, "i": i})
    extension_h, extension_k = condensed_pair(i, group)
    ball_h, ball_k = relation_ball(extension_h, r), relation_ball(extension_k, r)
    report.check(
        "relation-balls-coincide",
        "the two extensions have identical relation balls at radius r",
        ball_h.fingerprint == ball_k.fingerprint,
        {
            "radius": r,
            "count_h": ball_h.count,
            "count_k": ball_k.count,
            "fingerprint_h": ball_h.fingerprint,
            "fingerprint_k": ball_k.fingerprint,
        },
    )

    extension_h, extension_k0 = condensed_pair(0, group)
    alphabet = extension_h.oracle.alphabet
    w = commutator(escape_words(0, alphabet)[1], gen(alphabet, "t"))
    trivial_k0 = extension_k0.oracle.is_trivial(w)
    trivial_h = extension_h.oracle.is_trivial(w)
    report.check(
        "control-distinguish",
        "a word of length <= 8 separates the i=0 conjugate's extension",
        trivial_k0 and not trivial_h and len(w) <= 8,
        {
            "word": render_word(w),
            "length": len(w),
            "trivial_in_E(G,<ha>)": trivial_k0,
            "trivial_in_E(G,<h^2>)": trivial_h,
        },
    )
    return report


# ---------------------------------------------------------------------------
# The self-maps t -> t^(s b^i) of E.
# ---------------------------------------------------------------------------


def epsilon_substitution(i: int):
    """The endomorphism of E fixing a, b, c, h, s and sending t to
    t^(s b^i)."""
    return conjugation_substitution(builtin("E"), escape_words(i, ABCHST)[0], "t")


def epsilon_kernel_word(i: int) -> Word:
    """[t, h a^(b^i)]: trivial after the self-map, non-trivial before."""
    return commutator(gen(ABCHST, "t"), escape_words(i, ABCHST)[1])


def epsilon_kernel_certificate(i: int):
    """A relator-rewriting trace showing the kernel witness's image is
    trivial, independent of the Britton oracle.

    Returns (start word, rules, steps); replay with rewriting.run_trace
    against the presentation of E.
    """
    # The image of [t, h a^(b^i)] under t -> t^(s b^i), freely reduced,
    # written out: it is checked against substitute, not built by it.
    start = parse_word(
        f"b^{-i} s^-1 t^-1 s a^-1 b^{i} h^-1 b^{-i} s^-1 t s b^{i} h b^{-i} a b^{i}",
        ABCHST,
    )
    b = "b" if i >= 0 else "b^-1"
    rule = lambda name, lhs, rhs: RewriteRule(
        name, parse_word(lhs, ABCHST), parse_word(rhs, ABCHST)
    )
    rules = [
        rule("move-h-inv-left", f"{b} h^-1", f"h^-1 {b}"),
        rule("fold-inverse-pair", "a^-1 h^-1", "s^-1 h^-1 h^-1 s"),
        rule("stable-pinch", "t^-1 h^-1 h^-1 t", "h^-1 h^-1"),
        rule("move-h-left", f"{b} h", f"h {b}"),
        rule("fold-pair", "h a", "s^-1 h h s"),
    ]
    # Each b^+-i of the start word has k = |i| letters.  The h^-1 moves
    # left past b^i one letter at a time and folds with a^-1, t pinches,
    # and then the h moves left past b^i in the same way and folds with a.
    k = abs(i)
    moves = range(2 * k + 3, k + 3, -1)
    steps = (
        [TraceStep(0, pos) for pos in moves]
        + [TraceStep(1, k + 3), TraceStep(2, k + 1)]
        + [TraceStep(3, pos) for pos in moves]
        + [TraceStep(4, k + 4)]
    )
    return start, rules, steps


def exp_epsilon(
    i_list: Iterable[int], rho: int, *, budget: int = DEFAULT_BUDGET
) -> ExperimentReport:
    """For each i: the map is well defined, surjective, non-injective,
    and its collision count on the radius-rho ball is reported.

    Only pairs of ball words with equal exponent sums in E's coordinates
    (b, c, s, t) and equal shadows are compared: each is a homomorphism
    out of E that every self-map keeps, since it sends t and t^(s b^i)
    to the same value, so no other pair can collide.  The words are
    bucketed by them once, for every i.  rho is at most 3.
    """
    if rho > 3:
        raise ValueError(f"rho must be at most 3, got {rho}")
    i_list = list(i_list)
    e = builtin_group("E", budget)
    oracle, coordinates, shadow = e.oracle, e.coordinates, e.shadow
    for i in i_list:
        check_budget(abs(i) + 1, oracle.budget)  # s b^i, before it is built
    e_pres = builtin("E")
    ball = list(_walk(ABCHST, range(rho + 1), ()))
    ball_inverses = [invert_letters(u) for u in ball]
    buckets: dict[tuple[Any, ...], list[int]] = {}
    for p, u in enumerate(ball):
        sums = tuple(u.count(2 * k) - u.count(2 * k + 1) for k in coordinates)
        buckets.setdefault((sums, shadow_of(shadow, u)), []).append(p)
    # the self-maps fix a word letter for letter when it has no t, and a
    # pair of such words has images equal to the words, so it cannot collide
    t = 2 * ABCHST.index("t")
    has_t = [t in u or t + 1 in u for u in ball]
    report = ExperimentReport("epsilon", {"i": i_list, "rho": rho})
    for i in i_list:
        sigma = epsilon_substitution(i)
        bad = [
            render_word(rel)
            for rel in e_pres.relators
            if not oracle.is_trivial(substitute(rel, sigma))
        ]
        report.check(
            f"well-defined-{i}",
            "every relator maps to a trivial word",
            not bad,
            {"i": i, "relators": len(e_pres.relators), "failing": bad},
        )

        # the inverse self-map's images; sigma takes each, by free reduction
        # alone, to its generator
        sb = escape_words(i, ABCHST)[0]
        inverse = conjugation_substitution(e_pres, invert(sb), "t")
        preimages = dict(zip(ABCHST.names, inverse.images))
        onto = all(
            substitute(pre, sigma).letters == gen(ABCHST, name).letters
            for name, pre in preimages.items()
        )
        report.check(
            f"surjective-{i}",
            "every generator has an explicit preimage",
            onto,
            {"i": i,
             "preimages": {name: render_word(pre) for name, pre in preimages.items()}},
        )

        kernel_word = epsilon_kernel_word(i)
        image = substitute(kernel_word, sigma)
        image_trivial = oracle.is_trivial(image)
        witness_nontrivial = not oracle.is_trivial(kernel_word)
        start, rules, steps = epsilon_kernel_certificate(i)
        certified = (
            start.letters == image.letters
            and not run_trace(start, rules, steps, e_pres).letters
        )
        report.check(
            f"kernel-witness-{i}",
            "[t, h a^(b^i)] maps to a trivial word but is non-trivial",
            image_trivial and witness_nontrivial and certified,
            {
                "i": i,
                "witness": render_word(kernel_word),
                "image_trivial": image_trivial,
                "witness_nontrivial": witness_nontrivial,
                "trace_steps": len(steps),
            },
        )

        images, inverses = list(ball), list(ball_inverses)
        for p, u in enumerate(ball):
            if has_t[p]:
                images[p] = sigma.image_letters(u)
                inverses[p] = invert_letters(images[p])
        count = 0
        example = None
        for bucket in buckets.values():
            for p, q in combinations(bucket, 2):
                if not (has_t[p] or has_t[q]):
                    continue
                # each product is reduced once and the oracle folds its
                # letters: the budget measures the reduced product
                if not oracle.decide(_reduce_letters(images[p] + inverses[q])):
                    continue
                if not oracle.decide(_reduce_letters(ball[p] + ball_inverses[q])):
                    count += 1
                    # the least pair is the one the full double loop meets first
                    if example is None or (p, q) < example:
                        example = (p, q)
        witness: dict[str, Any] = {"i": i, "rho": rho, "ball_size": len(ball),
                                   "collisions": count}
        if example is not None:
            witness["example"] = [render_word(_word(ABCHST, ball[p])) for p in example]
        report.check(
            f"ball-injectivity-{i}",
            "collision count of the self-map on the radius-rho ball",
            True,  # reported, not asserted: no effective bound
            witness,
        )
    return report
