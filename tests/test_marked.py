import random

import pytest

from markedgroups.hnn import DEFAULT_BUDGET, e_oracle, g_oracle, handle_for
from markedgroups.marked import (
    Agreement,
    ChabautyPoint,
    CyclicOracle,
    MarkedGroup,
    chabauty_agree,
    condense,
    cong_r,
    escape_index,
    h2_point,
    marked_Z,
    marked_Zmod,
    max_agreement,
    orbit_witness,
    relation_ball,
)
from markedgroups.presentations import ABCHS
from markedgroups.words import (
    Alphabet,
    Word,
    enumerate_ball,
    free_reduce,
    invert,
    parse_word,
    render_canonical,
)

G_MARKED = MarkedGroup("G", g_oracle())


def gw(text):
    return parse_word(text, ABCHS)


# -- relation balls ----------------------------------------------------------


def test_relation_ball_z():
    ball = relation_ball(marked_Z(), 3)
    assert [render_canonical(w) for w in ball.words] == ["1"]


def test_relation_ball_zmod2():
    ball = relation_ball(marked_Zmod(2), 2)
    assert [render_canonical(w) for w in ball.words] == [
        "1", "x1 x1", "x1^-1 x1^-1"
    ]


def test_relation_ball_e_radius2():
    e_marked = MarkedGroup("E", condense(G_MARKED, h2_point()).oracle)
    ball = relation_ball(e_marked, 2)
    assert [render_canonical(w) for w in ball.words] == [
        "1", "x1 x1", "x1^-1 x1^-1"
    ]


def test_relation_ball_closed_under_inversion():
    ball = relation_ball(marked_Zmod(4), 5)
    rendered = {w.letters for w in ball.words}
    for w in ball.words:
        assert invert(w).letters in rendered
        assert len(w) <= 5


def test_relation_ball_matches_naive_sweep():
    # independent route: test every ball word directly, no inversion pruning
    m = marked_Zmod(3)
    ball = relation_ball(m, 6)
    naive = [
        w for w in enumerate_ball(m.oracle.alphabet, 6)
        if m.oracle.is_trivial(w)
    ]
    assert [w.letters for w in ball.words] == [w.letters for w in naive]


def test_relation_ball_export_header():
    ball = relation_ball(marked_Zmod(2), 2)
    lines = ball.export("Z/2").splitlines()
    assert lines[0] == (
        f"# group=Z/2 radius=2 count=3 fingerprint={ball.fingerprint}"
    )
    assert lines[1:] == ["1", "x1 x1", "x1^-1 x1^-1"]


# -- agreement ---------------------------------------------------------------


def test_cong_r_examples():
    assert cong_r(marked_Zmod(5), marked_Z(), 4)
    assert not cong_r(marked_Zmod(5), marked_Z(), 5)
    assert cong_r(G_MARKED, G_MARKED, 2)
    with pytest.raises(ValueError):
        cong_r(marked_Z(), G_MARKED, 1)


def test_max_agreement_examples():
    assert max_agreement(marked_Zmod(7), marked_Z(), 10) == Agreement(6, False)
    assert max_agreement(marked_Z(), marked_Z(), 5) == Agreement(5, True)
    assert str(Agreement(5, True)) == ">= 5"
    assert max_agreement(marked_Zmod(2), marked_Zmod(3), 5) == Agreement(1, False)


def test_cong_monotone():
    results = [cong_r(marked_Zmod(4), marked_Z(), r) for r in range(1, 6)]
    # once False, stays False
    assert results == sorted(results, reverse=True)


# -- Chabauty ----------------------------------------------------------------


def test_chabauty_agree_examples():
    h = h2_point()
    assert chabauty_agree(h, h, list(enumerate_ball(ABCHS, 1)))
    ha_point = ChabautyPoint(g_oracle(), handle_for("HA"), "HA")
    assert not chabauty_agree(h, ha_point, [gw("h a")])


def test_chabauty_agree_radius2_witness():
    finite_set = list(enumerate_ball(ABCHS, 2))
    i = escape_index(finite_set)
    _, k = orbit_witness(i)
    assert chabauty_agree(h2_point(), k, finite_set)


# -- condense ----------------------------------------------------------------


def test_condense_g_h2_is_e():
    from markedgroups.hnn import e_oracle

    extension = condense(G_MARKED, h2_point())
    assert extension.marking == ("a", "b", "c", "h", "s", "t")
    e = e_oracle()
    for w in enumerate_ball(extension.oracle.alphabet, 3):
        assert extension.oracle.is_trivial(w) == e.is_trivial(
            Word(e.alphabet, w.letters)
        )


def test_e_relation_ball_pinned_and_built_by_condense():
    e = e_oracle()
    ball = relation_ball(MarkedGroup("E", e), 4)
    assert ball.count == 65
    assert ball.fingerprint == (
        "5e6d3f74fd70bce345e9c616509fe00543474dca4c138890f0d338b11eb87a80"
    )
    condensed = condense(G_MARKED, h2_point()).oracle
    rng = random.Random(29)
    for _ in range(200):
        letters = tuple(
            (rng.randrange(e.alphabet.arity), rng.choice((1, -1)))
            for _ in range(rng.randrange(0, 13))
        )
        w = Word(e.alphabet, letters)
        assert e.is_trivial(w) == condensed.is_trivial(w), letters


def test_condense_distinguished_by_commutator():
    _, k = orbit_witness(1)
    ext_h = condense(G_MARKED, h2_point())
    ext_k = condense(G_MARKED, k)
    z = parse_word("h a^b", ABCHS)
    comm = parse_word("[h a^b, t]", ext_h.oracle.alphabet)
    assert k.handle(z) and not h2_point().handle(z)
    assert ext_k.oracle.is_trivial(comm)
    assert not ext_h.oracle.is_trivial(comm)


def test_condense_z_whole_group_is_z_squared():
    z = marked_Z()
    whole = ChabautyPoint(
        z.oracle,
        type(h2_point().handle)("all", lambda w: w),
        "Z",
    )
    ext = condense(z, whole)
    assert ext.arity == 2

    class ZSquared:
        alphabet = ext.oracle.alphabet

        def is_trivial(self, w):
            e1 = sum(s for i, s in w.letters if i == 0)
            e2 = sum(s for i, s in w.letters if i == 1)
            return e1 == 0 and e2 == 0

    reference = MarkedGroup("Z^2", ZSquared())
    assert max_agreement(ext, reference, 4) == Agreement(4, True)


def test_condense_keeps_budget():
    tight = g_oracle(50)
    assert condense(MarkedGroup("G", tight), h2_point(tight)).oracle.budget == 50
    z = marked_Z()
    whole = ChabautyPoint(z.oracle, type(h2_point().handle)("all", lambda w: w))
    assert condense(z, whole).oracle.budget == DEFAULT_BUDGET


def test_condense_alphabet_guard():
    with pytest.raises(ValueError):
        condense(marked_Z(), h2_point())


# -- escape index and orbit witness -----------------------------------------


def test_escape_index_examples():
    assert escape_index([gw("a"), gw("h")]) == 1
    assert escape_index([]) == 0
    assert escape_index(
        [gw("a"), gw("a^b"), gw("a^(b^-1)"), gw("h")]
    ) == 2


def test_escape_index_ball_values():
    assert escape_index(list(enumerate_ball(ABCHS, 1))) == 1
    assert escape_index(list(enumerate_ball(ABCHS, 2))) == 1
    assert escape_index(list(enumerate_ball(ABCHS, 3))) == 2


def test_escape_index_positive_tie_break():
    # span {x} leaves both 1 and -1 escaping; i=0 wins, then +|i| before -|i|
    assert escape_index([gw("a^b")]) == 0
    assert escape_index([gw("a"), gw("a^b a^(b^-1)")]) == 1


def test_orbit_witness_claims():
    oracle = g_oracle()
    for i in (0, 1, 2, -1):
        g, k = orbit_witness(i)
        # g = (s b^i)^-1
        expected = invert(free_reduce(gw("s") * gw("b") ** i))
        assert g == expected
        # (h^2)^{s b^i} = h a^{b^i} in G
        lhs = free_reduce(parse_word(f"(h^2)^(s b^{i})", ABCHS))
        witness = free_reduce(parse_word(f"h a^(b^{i})", ABCHS))
        assert oracle.is_trivial(lhs * invert(witness))
        # the witness generates: in K, not in H2, and its square is h^2
        assert k.handle(witness)
        assert not h2_point().handle(witness)
        assert oracle.is_trivial(
            witness * witness * invert(gw("h^2"))
        )


def test_cyclic_oracle_validation():
    with pytest.raises(ValueError):
        CyclicOracle(0)
    with pytest.raises(ValueError):
        CyclicOracle(None, Alphabet(("x", "y")))
