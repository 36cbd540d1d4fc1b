"""End-to-end acceptance checks for the extension tower and its tooling.

Each test prints a one-line verdict so a plain ``pytest -s`` run doubles
as an acceptance report.
"""

import random

from markedgroups.experiments import (
    epsilon_kernel_word,
    epsilon_substitution,
    exp_continuity,
    exp_epsilon,
    exp_orbit,
)
from markedgroups.hnn import g_oracle, h2_handle
from markedgroups.marked import (
    Agreement,
    MarkedGroup,
    builtin_group,
    chabauty_agree,
    condense,
    escape_index,
    marked_Z,
    marked_Zmod,
    max_agreement,
    orbit_witness,
    relation_ball,
)
from markedgroups.presentations import ABCHS, ABCHST, builtin
from markedgroups.words import (
    Word,
    commutator,
    concat,
    enumerate_ball,
    free_reduce,
    gen,
    invert,
    parse_word,
    substitute,
)


def report(number: int, title: str, ok: bool) -> None:
    print(f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({title}) failed"


def test_criterion_1_relator_suite():
    expected = {"B": 4, "G": 8, "E": 9}
    ok = True
    for name, count in expected.items():
        pres = builtin(name)
        oracle = builtin_group(name).oracle
        ok = ok and len(pres.relators) == count
        ok = ok and all(oracle.is_trivial(rel) for rel in pres.relators)
    report(1, "built-in relators trivial with expected counts", ok)


def test_criterion_2_cyclic_agreement_radius():
    z = marked_Z()
    ok = all(
        max_agreement(marked_Zmod(i), z, i + 1) == Agreement(i - 1, False)
        for i in range(2, 13)
    )
    report(2, "Z/i agrees with Z at radius exactly i-1 for i in 2..12", ok)


def test_criterion_3_conjugation_identities():
    oracle = g_oracle()
    h = gen(ABCHS, "h")
    ok = True
    for i in range(-3, 4):
        sbi = free_reduce(gen(ABCHS, "s") * gen(ABCHS, "b") ** i)
        witness = free_reduce(
            concat(h, invert(gen(ABCHS, "b") ** i), gen(ABCHS, "a"),
                   gen(ABCHS, "b") ** i)
        )
        conj = free_reduce(concat(invert(sbi), h, h, sbi))
        ok = ok and oracle.is_trivial(free_reduce(concat(conj, invert(witness))))
        square = free_reduce(concat(witness, witness, invert(h), invert(h)))
        ok = ok and oracle.is_trivial(square)
    report(3, "(h^2)^(s b^i) = h a^(b^i) and its square is h^2, |i| <= 3", ok)


def test_criterion_4_conjugate_meets_ball_identically():
    oracle = g_oracle()
    ok = True
    for rho in (1, 2):
        finite_set = list(enumerate_ball(ABCHS, rho))
        i = escape_index(finite_set, oracle)
        _, k_point = orbit_witness(i, oracle)
        h_point = h2_handle(oracle)
        ok = ok and chabauty_agree(h_point, k_point, finite_set)
        witness = free_reduce(
            parse_word(f"h a^(b^{i})", ABCHS)
        )
        ok = ok and k_point(witness) and not h_point(witness)
    report(4, "escaping conjugate agrees on the full ball yet differs", ok)


def test_criterion_5_extension_relation_balls():
    oracle = g_oracle()
    g_marked = MarkedGroup("G", oracle)
    extension_h = condense(g_marked, h2_handle(oracle))
    ok = True
    for r in (2, 3):
        i = escape_index(list(enumerate_ball(ABCHS, r)), oracle)
        _, k_point = orbit_witness(i, oracle)
        extension_k = condense(g_marked, k_point)
        ball_h = relation_ball(extension_h, r)
        ball_k = relation_ball(extension_k, r)
        ok = ok and ball_h.fingerprint == ball_k.fingerprint
    # i = 0 control: a short word separates the two extensions
    _, k0_point = orbit_witness(0, oracle)
    extension_k0 = condense(g_marked, k0_point)
    alphabet = extension_h.oracle.alphabet
    w = commutator(
        free_reduce(gen(alphabet, "h") * gen(alphabet, "a")),
        gen(alphabet, "t"),
    )
    ok = ok and len(w) <= 8
    ok = ok and extension_k0.oracle.is_trivial(w)
    ok = ok and not extension_h.oracle.is_trivial(w)
    report(5, "extension relation balls coincide; i=0 control separated", ok)


def test_criterion_6_self_map_suite():
    oracle = builtin_group("E").oracle
    e_pres = builtin("E")
    ok = True
    for i in (1, 2, 3):
        sigma = epsilon_substitution(i)
        ok = ok and all(
            oracle.is_trivial(substitute(rel, sigma))
            for rel in e_pres.relators
        )
        s, b, t = gen(ABCHST, "s"), gen(ABCHST, "b"), gen(ABCHST, "t")
        pre_t = free_reduce(concat(s, b ** i, t, invert(b ** i), invert(s)))
        ok = ok and substitute(pre_t, sigma).letters == t.letters
        for name in ("a", "b", "c", "h", "s"):
            u = gen(ABCHST, name)
            ok = ok and substitute(u, sigma).letters == u.letters
        witness = epsilon_kernel_word(i)
        ok = ok and oracle.is_trivial(substitute(witness, sigma))
        ok = ok and not oracle.is_trivial(witness)
        if i >= 2:
            ball = list(enumerate_ball(ABCHST, 1))
            images = [substitute(u, sigma) for u in ball]
            for p in range(len(ball)):
                for q in range(p + 1, len(ball)):
                    same_image = oracle.is_trivial(
                        free_reduce(concat(images[p], invert(images[q])))
                    )
                    same_word = oracle.is_trivial(
                        free_reduce(concat(ball[p], invert(ball[q])))
                    )
                    ok = ok and (not same_image or same_word)
    report(6, "self-maps are well defined, surjective, and kill a witness", ok)


def test_criterion_7_oracle_properties():
    oracle = builtin_group("E").oracle
    relators = builtin("E").relators
    rng = random.Random(20260824)
    ok = True
    for _ in range(1000):
        letters = tuple(
            2 * rng.randrange(6) + (rng.choice((1, -1)) < 0)
            for _ in range(rng.randrange(0, 13))
        )
        w = Word(ABCHST, letters)
        ok = ok and oracle.is_trivial(free_reduce(concat(w, invert(w))))
        u = Word(
            ABCHST,
            tuple(
                2 * rng.randrange(6) + (rng.choice((1, -1)) < 0)
                for _ in range(rng.randrange(0, 5))
            ),
        )
        conj = free_reduce(concat(u, w, invert(u)))
        ok = ok and oracle.is_trivial(conj) == oracle.is_trivial(w)
        rel = relators[rng.randrange(len(relators))]
        pos = rng.randrange(len(letters) + 1)
        spliced = Word(ABCHST, letters[:pos] + rel.letters + letters[pos:])
        ok = ok and oracle.is_trivial(spliced) == oracle.is_trivial(w)
        ok = ok and oracle.is_trivial(w) == oracle.is_trivial(invert(w))
    report(7, "1000 random words satisfy the group-oracle laws", ok)


def test_criterion_8_worker_determinism():
    ok = True
    for run in (
        lambda: exp_orbit(1),
        lambda: exp_continuity(2),
        lambda: exp_epsilon([1, 2], 1),
    ):
        once, again = (run().to_json(include_timing=False) for _ in range(2))
        ok = ok and once == again
    oracle = g_oracle()
    extension = condense(MarkedGroup("G", oracle), h2_handle(oracle))
    first = relation_ball(extension, 3)
    again = relation_ball(extension, 3)
    ok = ok and first.fingerprint == again.fingerprint and first.words == again.words
    report(8, "reports and fingerprints are identical from run to run", ok)
