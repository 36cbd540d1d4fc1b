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
from typing import Any, Callable, Iterable

from .hnn import DEFAULT_BUDGET, e_oracle, g_oracle
from .marked import (
    condensed_balls,
    escape_index,
    marked_G,
    marked_Z,
    marked_Zmod,
    max_agreement,
    orbit_agreement,
)
from .presentations import (
    ABCHS,
    ABCHST,
    builtin,
    conjugation_substitution,
    zero_sum_coordinates,
)
from .rewriting import RewriteRule, build_trace, run_trace
from .words import (
    Alphabet,
    Word,
    check_budget,
    commutator,
    concat,
    enumerate_ball,
    exponent_sums,
    free_reduce,
    gen,
    invert,
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
    experiment: str
    params: dict[str, Any]
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def run_check(
        self,
        check_id: str,
        anchor: str,
        fn: Callable[[], tuple[bool, dict[str, Any]]],
    ) -> Check:
        start = time.perf_counter()
        passed, witness = fn()
        ms = (time.perf_counter() - start) * 1000.0
        check = Check(check_id, anchor, passed, witness, ms)
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
    report = ExperimentReport("zmod-limit", {"imax": i_max})
    z = marked_Z()
    for i in range(2, i_max + 1):

        def check(i: int = i) -> tuple[bool, dict[str, Any]]:
            agreement = max_agreement(marked_Zmod(i), z, i + 1)
            return (
                agreement == (i - 1, False),
                {"i": i, "agreement_radius": agreement.radius,
                 "saturated": agreement.saturated, "expected": i - 1},
            )

        report.run_check(
            f"zmod-{i}",
            f"Z/{i} and Z agree at radius exactly {i - 1}",
            check,
        )
    return report


# ---------------------------------------------------------------------------
# The orbit of <h^2> accumulates on itself.
# ---------------------------------------------------------------------------


def _witness_word(i: int, alphabet: Alphabet = ABCHS) -> Word:
    """h a^{b^i}, over the alphabet of G unless another is given."""
    a, b, h = (gen(alphabet, name) for name in "abh")
    return free_reduce(concat(h, invert(b ** i), a, b ** i))


def exp_orbit(rho: int, *, budget: int = DEFAULT_BUDGET) -> ExperimentReport:
    """For the finite set F = ball of radius rho in G, find a conjugate
    of H = <h^2> that meets F exactly as H does yet differs from H."""
    if rho not in (1, 2, 3):
        raise ValueError("rho must be 1, 2 or 3")
    oracle = g_oracle(budget)
    orbit = orbit_agreement(rho, oracle)
    i = orbit.i
    witness = _witness_word(i)
    report = ExperimentReport(
        "orbit", {"rho": rho, "i": i, "conjugator": render_word(orbit.conjugator)}
    )

    report.run_check(
        "chabauty-agree",
        "H and gHg^-1 intersect the radius-rho ball identically",
        lambda: (orbit.agree, {"ball_size": orbit.ball_size, "i": i}),
    )
    report.run_check(
        "distinct-subgroup",
        "h a^(b^i) lies in gHg^-1 but not in H",
        lambda: (
            orbit.k_point(witness) and not orbit.h_point(witness),
            {"witness": render_word(witness)},
        ),
    )

    def conjugate_identity() -> tuple[bool, dict[str, Any]]:
        sbi = free_reduce(gen(ABCHS, "s") * gen(ABCHS, "b") ** i)
        lhs = free_reduce(
            concat(invert(sbi), gen(ABCHS, "h") * gen(ABCHS, "h"), sbi)
        )
        ok = oracle.is_trivial(free_reduce(concat(lhs, invert(witness))))
        return ok, {"identity": f"(h^2)^(s b^{i}) = {render_word(witness)}"}

    report.run_check(
        "conjugate-identity",
        "(h^2)^(s b^i) equals h a^(b^i) in G",
        conjugate_identity,
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
    oracle = g_oracle(budget)
    # outside the kernel of G's coordinates no word is in A (orbit_agreement)
    i = escape_index(enumerate_ball(ABCHS, r, marked_G(oracle).coordinates), oracle)
    report = ExperimentReport("continuity", {"r": r, "i": i})

    def balls_coincide() -> tuple[bool, dict[str, Any]]:
        _, (ball_h, ball_k) = condensed_balls(i, r, oracle)
        return (
            ball_h.fingerprint == ball_k.fingerprint,
            {
                "radius": r,
                "count_h": ball_h.count,
                "count_k": ball_k.count,
                "fingerprint_h": ball_h.fingerprint,
                "fingerprint_k": ball_k.fingerprint,
            },
        )

    report.run_check(
        "relation-balls-coincide",
        "the two extensions have identical relation balls at radius r",
        balls_coincide,
    )

    def control_distinguish() -> tuple[bool, dict[str, Any]]:
        # radius 0: only the two extensions are needed here
        (extension_h, extension_k0), _ = condensed_balls(0, 0, oracle)
        alphabet = extension_h.oracle.alphabet
        ha = free_reduce(gen(alphabet, "h") * gen(alphabet, "a"))
        w = commutator(ha, gen(alphabet, "t"))
        trivial_k0 = extension_k0.oracle.is_trivial(w)
        trivial_h = extension_h.oracle.is_trivial(w)
        return (
            trivial_k0 and not trivial_h and len(w) <= 8,
            {
                "word": render_word(w),
                "length": len(w),
                "trivial_in_E(G,<ha>)": trivial_k0,
                "trivial_in_E(G,<h^2>)": trivial_h,
            },
        )

    report.run_check(
        "control-distinguish",
        "a word of length <= 8 separates the i=0 conjugate's extension",
        control_distinguish,
    )
    return report


# ---------------------------------------------------------------------------
# The self-maps t -> t^(s b^i) of E.
# ---------------------------------------------------------------------------


def epsilon_substitution(i: int):
    """The endomorphism of E fixing a, b, c, h, s and sending t to
    t^(s b^i)."""
    e_pres = builtin("E")
    g = free_reduce(gen(ABCHST, "s") * gen(ABCHST, "b") ** i)
    return conjugation_substitution(e_pres, g, "t")


def epsilon_kernel_word(i: int) -> Word:
    """[t, h a^(b^i)]: trivial after the self-map, non-trivial before."""
    return commutator(gen(ABCHST, "t"), _witness_word(i, ABCHST))


def epsilon_kernel_certificate(i: int):
    """A relator-rewriting trace showing the kernel witness's image is
    trivial, independent of the Britton oracle.

    Returns (start word, rules, steps); replay with rewriting.run_trace
    against the presentation of E.
    """
    sigma = epsilon_substitution(i)
    start = substitute(epsilon_kernel_word(i), sigma)
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
    schedule = [0] * abs(i) + [1, 2] + [3] * abs(i) + [4]
    steps = build_trace(start, rules, schedule)
    return start, rules, steps


def exp_epsilon(
    i_list: Iterable[int], rho: int, *, budget: int = DEFAULT_BUDGET
) -> ExperimentReport:
    """For each i: the map is well defined, surjective, non-injective,
    and its collision count on the radius-rho ball is reported.

    Only pairs whose images have equal exponent sums in E's coordinates
    (b, c, s, t) are compared, since each sum is a homomorphism E -> Z
    and so no other pair can collide.  rho is at most 3.
    """
    if rho > 3:
        raise ValueError(f"rho must be at most 3, got {rho}")
    i_list = list(i_list)
    oracle = e_oracle(budget)
    for i in i_list:
        check_budget(abs(i) + 1, oracle.budget)  # s b^i, before it is built
    e_pres = builtin("E")
    coordinates = zero_sum_coordinates(e_pres)
    report = ExperimentReport("epsilon", {"i": i_list, "rho": rho})
    ball = list(enumerate_ball(ABCHST, rho))
    for i in i_list:
        sigma = epsilon_substitution(i)

        def well_defined(i: int = i, sigma=sigma) -> tuple[bool, dict[str, Any]]:
            bad = [
                render_word(rel)
                for rel in e_pres.relators
                if not oracle.is_trivial(substitute(rel, sigma))
            ]
            return not bad, {"i": i, "relators": len(e_pres.relators),
                             "failing": bad}

        report.run_check(
            f"well-defined-{i}",
            "every relator maps to a trivial word",
            well_defined,
        )

        def surjective(i: int = i, sigma=sigma) -> tuple[bool, dict[str, Any]]:
            preimages: dict[str, str] = {}
            ok = True
            for name in ABCHST.names:
                if name == "t":
                    s = gen(ABCHST, "s")
                    b = gen(ABCHST, "b")
                    t = gen(ABCHST, "t")
                    pre = free_reduce(concat(s, b ** i, t, invert(b ** i),
                                             invert(s)))
                else:
                    pre = gen(ABCHST, name)
                image = substitute(pre, sigma)
                preimages[name] = render_word(pre)
                # certified symbolically: the image freely reduces to the
                # generator itself
                if image.letters != gen(ABCHST, name).letters:
                    ok = False
            return ok, {"i": i, "preimages": preimages}

        report.run_check(
            f"surjective-{i}",
            "every generator has an explicit preimage",
            surjective,
        )

        def kernel(i: int = i, sigma=sigma) -> tuple[bool, dict[str, Any]]:
            witness = epsilon_kernel_word(i)
            image = substitute(witness, sigma)
            image_trivial = oracle.is_trivial(image)
            witness_nontrivial = not oracle.is_trivial(witness)
            start, rules, steps = epsilon_kernel_certificate(i)
            certified = (
                start.letters == image.letters
                and not run_trace(start, rules, steps, e_pres).letters
            )
            return (
                image_trivial and witness_nontrivial and certified,
                {
                    "i": i,
                    "witness": render_word(witness),
                    "image_trivial": image_trivial,
                    "witness_nontrivial": witness_nontrivial,
                    "trace_steps": len(steps),
                },
            )

        report.run_check(
            f"kernel-witness-{i}",
            "[t, h a^(b^i)] maps to a trivial word but is non-trivial",
            kernel,
        )

        def collisions(i: int = i, sigma=sigma) -> tuple[bool, dict[str, Any]]:
            images = [substitute(u, sigma) for u in ball]
            # sigma fixes a word letter for letter when it has no t; a pair
            # of fixed words has image equal to word, so it cannot collide
            fixed = [img.letters == u.letters for img, u in zip(images, ball)]
            # images apart in a coordinate sum differ in E, so only pairs in
            # one bucket are compared: q runs over the later members of p's
            # bucket, in the order of the full double loop
            buckets: dict[tuple[int, ...], list[int]] = {}
            later: list[tuple[list[int], int]] = []
            for p, img in enumerate(images):
                sums = exponent_sums(img)
                bucket = buckets.setdefault(tuple(sums[k] for k in coordinates), [])
                later.append((bucket, len(bucket) + 1))
                bucket.append(p)
            count = 0
            example = None
            for p, (bucket, start) in enumerate(later):
                for q in bucket[start:]:
                    if fixed[p] and fixed[q]:
                        continue
                    merged_image = free_reduce(
                        concat(images[p], invert(images[q]))
                    )
                    if not oracle.is_trivial(merged_image):
                        continue
                    merged = free_reduce(concat(ball[p], invert(ball[q])))
                    if not oracle.is_trivial(merged):
                        count += 1
                        if example is None:
                            example = (
                                render_word(ball[p]),
                                render_word(ball[q]),
                            )
            witness: dict[str, Any] = {"i": i, "rho": rho,
                                       "ball_size": len(ball),
                                       "collisions": count}
            if example is not None:
                witness["example"] = list(example)
            return True, witness  # reported, not asserted: no effective bound

        report.run_check(
            f"ball-injectivity-{i}",
            "collision count of the self-map on the radius-rho ball",
            collisions,
        )
    return report
