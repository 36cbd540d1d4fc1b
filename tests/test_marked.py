import random
import tracemalloc
from dataclasses import replace

import pytest

from markedgroups.hnn import (
    DEFAULT_BUDGET,
    HnnOracle,
    SubgroupHandle,
    g_oracle,
    h2_handle,
)
from markedgroups.marked import (
    Agreement,
    CyclicOracle,
    MarkedGroup,
    builtin_group,
    chabauty_agree,
    condense,
    cong_r,
    escape_index,
    escape_words,
    marked_Z,
    marked_Zmod,
    max_agreement,
    orbit_agreement,
    orbit_witness,
    relation_ball,
)
from markedgroups.presentations import ABCHS, ABCHST, builtin, zero_sum_coordinates
from markedgroups.words import (
    Alphabet,
    Word,
    enumerate_ball,
    enumerate_sphere,
    free_reduce,
    invert,
    parse_word,
    render_canonical,
)

G_MARKED = MarkedGroup("G", g_oracle())
G = G_MARKED.oracle


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


class CountingOracle:
    """Passes every call through to an oracle and counts them."""

    def __init__(self, inner):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.calls = 0

    def is_trivial(self, w):
        self.calls += 1
        return self.inner.is_trivial(w)


@pytest.mark.parametrize(
    "group, r, calls",
    [(marked_Z(), r, r + 1) for r in range(5)]
    + [(MarkedGroup("E", builtin_group("E").oracle), 2, 43)],
)
def test_relation_ball_tests_one_word_per_inverse_pair(group, r, calls):
    counting = CountingOracle(group.oracle)
    ball = relation_ball(MarkedGroup(group.name, counting), r)
    assert counting.calls == calls
    assert ball == relation_ball(group, r)


def test_relation_ball_e_radius2():
    e_marked = MarkedGroup("E", condense(G_MARKED, h2_handle(G)).oracle)
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


def _pruned_groups():
    g = builtin_group("G")
    h2_ext = condense(g, h2_handle(g.oracle))
    k_ext = condense(g, orbit_witness(2, g.oracle)[1])
    return [
        (builtin_group("B"), 5), (builtin_group("ZxB"), 4),
        (builtin_group("G"), 5), (builtin_group("E"), 4),
        (marked_Z(), 6), (marked_Zmod(4), 6), (h2_ext, 3), (k_ext, 3),
    ]


@pytest.mark.parametrize(
    "group, r_max", _pruned_groups(), ids=lambda v: getattr(v, "name", v)
)
def test_relation_ball_pruned_equals_full_walk(group, r_max):
    full = replace(group, coordinates=())
    for r in range(r_max + 1):
        assert relation_ball(group, r) == relation_ball(full, r), r


@pytest.mark.parametrize(
    "group, r_max",
    [
        (builtin_group("B"), 6), (builtin_group("ZxB"), 5),
        (builtin_group("G"), 6), (builtin_group("E"), 5),
        (marked_Z(), 8), (marked_Zmod(4), 8),
        *((group, 4) for group, _ in _pruned_groups()[-2:]),
    ],
    ids=lambda v: getattr(v, "name", v),
)
def test_relation_ball_equals_brute_force(group, r_max):
    # the class walk and its conjugation closure against testing every word
    # of the pruned ball, with no inverse or class skip
    oracle = group.oracle
    brute = [
        w.letters for w in enumerate_ball(oracle.alphabet, r_max, group.coordinates)
        if oracle.is_trivial(w)
    ]
    for r in range(r_max + 1):
        ball = [w.letters for w in relation_ball(group, r).words]
        assert len(set(ball)) == len(ball), r  # the closure makes no word twice
        assert ball == [w for w in brute if len(w) <= r], r


@pytest.mark.parametrize("name", ["B", "ZxB", "G", "E"])
def test_builtin_group(name):
    group = builtin_group(name)
    pres = builtin(name)
    assert group.name == name
    assert group.marking == pres.alphabet.names
    assert group.coordinates == zero_sum_coordinates(pres)
    assert all(group.oracle.is_trivial(rel) for rel in pres.relators)


def test_builtin_group_budget_and_unknown_name():
    e = builtin_group("E", 50)
    assert e.oracle.budget == 50 and e.oracle.base.budget == 50
    with pytest.raises(KeyError):
        builtin_group("F")


def test_condense_coordinates():
    g = builtin_group("G")
    assert g.coordinates == (1, 2, 4)
    assert condense(g, h2_handle(g.oracle)).coordinates == (1, 2, 4, 5)
    assert marked_Z().coordinates == (0,) and marked_Zmod(3).coordinates == ()


def test_relation_ball_keeps_trivial_word_with_odd_a_count():
    # a^c = a a^b: this relator has three a's, so a filter on the parity of
    # a would drop it; a is no coordinate of B, and the walk keeps it
    w = parse_word("c^-1 a c b^-1 a^-1 b a^-1", builtin("B").alphabet)
    assert sum(x >> 1 == 0 for x in w.letters) % 2 == 1
    ball = relation_ball(builtin_group("B"), 7)
    assert w in ball.words


@pytest.mark.parametrize(
    "name, count, fingerprint",
    [
        ("G", 1503, "eb7c0ef75f21e9e16baee046c4626c21d1e2eddc83cfb93c9a3f2bd41729d41a"),
        ("E", 1703, "cc3a61a18e0ff1a731de5b747095a89785945d92a0adf0b677a54e5f9a2b012f"),
    ],
    ids=["G", "E"],
)
def test_relation_ball_radius6_pinned(name, count, fingerprint):
    # pinned from the full scan, before balls were pruned
    ball = relation_ball(builtin_group(name), 6)
    assert (ball.count, ball.fingerprint) == (count, fingerprint)


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


@pytest.mark.parametrize(
    "m1, m2, r_max, calls",
    [
        (builtin_group("E"), builtin_group("E"), 4, (63, 63)),
        # Z/7 has no coordinate; Z's prunes every non-empty sphere
        (marked_Zmod(7), marked_Z(), 10, (7, 0)),
    ],
    ids=["E-E", "Z7-Z"],
)
def test_max_agreement_tests_one_word_per_inverse_pair(m1, m2, r_max, calls):
    counting1 = CountingOracle(m1.oracle)
    counting2 = CountingOracle(m2.oracle)
    agreement = max_agreement(
        replace(m1, oracle=counting1), replace(m2, oracle=counting2), r_max
    )
    assert (counting1.calls, counting2.calls) == calls
    assert agreement == max_agreement(m1, m2, r_max)


def _agreement_pairs():
    g = builtin_group("G")
    e = builtin_group("E")
    return [
        (marked_Zmod(5), marked_Z(), 8),
        (marked_Zmod(7), marked_Z(), 10),
        (marked_Z(), marked_Z(), 5),
        (builtin_group("G"), g, 3),
        (e, condense(g, h2_handle(g.oracle)), 3),
        (e, replace(e, coordinates=(1, 5)), 3),
        (
            condense(g, h2_handle(g.oracle)),
            condense(g, orbit_witness(0, g.oracle)[1]),
            4,
        ),
    ]


def test_max_agreement_pruned_equals_full_walk():
    for m1, m2, r_max in _agreement_pairs():
        full = max_agreement(
            replace(m1, coordinates=()), replace(m2, coordinates=()), r_max
        )
        assert max_agreement(m1, m2, r_max) == full, (m1.name, m2.name)


def _brute_force_agreement(m1, m2, r_max):
    # compares every trivial word of each sphere, each word tested
    def sphere(m, r):
        alphabet = m.oracle.alphabet
        words = enumerate_sphere(alphabet, r, m.coordinates)
        return {w.letters for w in words if m.oracle.is_trivial(w)}

    for r in range(1, r_max + 1):
        if sphere(m1, r) != sphere(m2, r):
            return Agreement(r - 1, False)
    return Agreement(r_max, True)


def test_max_agreement_equals_brute_force():
    pairs = _agreement_pairs() + [
        (marked_Zmod(i), marked_Z(), 14) for i in range(1, 13)
    ]
    for m1, m2, r_max in pairs:
        expected = _brute_force_agreement(m1, m2, r_max)
        assert max_agreement(m1, m2, r_max) == expected, (m1.name, m2.name)


def test_cong_monotone():
    results = [cong_r(marked_Zmod(4), marked_Z(), r) for r in range(1, 6)]
    # once False, stays False
    assert results == sorted(results, reverse=True)


# -- Chabauty ----------------------------------------------------------------


def test_chabauty_agree_examples():
    h = h2_handle(G)
    assert chabauty_agree(h, h, list(enumerate_ball(ABCHS, 1)))
    ha_point = orbit_witness(0, G)[1]  # <ha> = <h^2>^s
    assert not chabauty_agree(h, ha_point, [gw("h a")])


def test_chabauty_agree_alphabet_guard():
    whole_z = SubgroupHandle("all", lambda w: w, marked_Z().oracle.alphabet)
    with pytest.raises(ValueError):
        chabauty_agree(h2_handle(G), whole_z, [])


def test_orbit_agreement_streams_the_ball():
    # the radius-3 ball of G has 911 words; walking it instead of listing
    # it keeps the peak far below the 144 KiB that a list of the ball takes
    g = builtin_group("G")
    tracemalloc.start()
    try:
        orbit = orbit_agreement(3, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (orbit.ball_size, orbit.i, orbit.agree) == (911, 2, True)
    assert peak < 64 * 1024, peak


def test_orbit_subgroups_lie_in_kernel_of_g_coordinates():
    # h and a map to 0, so <h^2>, <ha>, A and their conjugates lie in the
    # kernel of G's coordinates: the pruned orbit walks are exact
    g = builtin_group("G")
    coordinates = g.coordinates
    assert ABCHS.index("h") not in coordinates
    assert ABCHS.index("a") not in coordinates
    for rho in range(4):
        orbit = orbit_agreement(rho, g)
        ball = list(enumerate_ball(ABCHS, rho))
        assert orbit.i == escape_index(ball, g.oracle)
        assert orbit.agree == chabauty_agree(orbit.h_point, orbit.k_point, ball)
        assert orbit.ball_size == len(ball)


def test_chabauty_agree_radius2_witness():
    finite_set = list(enumerate_ball(ABCHS, 2))
    i = escape_index(finite_set, G)
    _, k = orbit_witness(i, G)
    assert chabauty_agree(h2_handle(G), k, finite_set)


# -- condense ----------------------------------------------------------------


def reference_e():
    """E's oracle built directly over G, independent of condense."""
    h2 = h2_handle(G)
    return HnnOracle(G, h2.contains, h2.contains, "t")


def test_condense_g_h2_is_e():
    extension = condense(G_MARKED, h2_handle(G))
    assert extension.marking == ("a", "b", "c", "h", "s", "t")
    e = reference_e()
    for w in enumerate_ball(extension.oracle.alphabet, 3):
        assert extension.oracle.is_trivial(w) == e.is_trivial(
            Word(e.alphabet, w.letters)
        )


def test_e_relation_ball_pinned_and_built_by_condense():
    e = reference_e()
    ball = relation_ball(MarkedGroup("E", e), 4)
    assert ball.count == 65
    assert ball.fingerprint == (
        "5e6d3f74fd70bce345e9c616509fe00543474dca4c138890f0d338b11eb87a80"
    )
    condensed = builtin_group("E").oracle
    rng = random.Random(29)
    for _ in range(200):
        letters = tuple(
            2 * rng.randrange(e.alphabet.arity) + (rng.choice((1, -1)) < 0)
            for _ in range(rng.randrange(0, 13))
        )
        w = Word(e.alphabet, letters)
        assert e.is_trivial(w) == condensed.is_trivial(w), letters


def test_condense_distinguished_by_commutator():
    _, k = orbit_witness(1, G)
    ext_h = condense(G_MARKED, h2_handle(G))
    ext_k = condense(G_MARKED, k)
    z = parse_word("h a^b", ABCHS)
    comm = parse_word("[h a^b, t]", ext_h.oracle.alphabet)
    assert k(z) and not h2_handle(G)(z)
    assert ext_k.oracle.is_trivial(comm)
    assert not ext_h.oracle.is_trivial(comm)


def test_condense_z_whole_group_is_z_squared():
    z = marked_Z()
    whole = SubgroupHandle("Z", lambda w: w, z.oracle.alphabet)
    ext = condense(z, whole)
    assert ext.arity == 2

    class ZSquared:
        alphabet = ext.oracle.alphabet

        def is_trivial(self, w):
            e1 = sum((-1) ** x for x in w.letters if x // 2 == 0)
            e2 = sum((-1) ** x for x in w.letters if x // 2 == 1)
            return e1 == 0 and e2 == 0

    reference = MarkedGroup("Z^2", ZSquared())
    assert max_agreement(ext, reference, 4) == Agreement(4, True)


def test_condense_keeps_budget():
    tight = g_oracle(50)
    assert condense(MarkedGroup("G", tight), h2_handle(tight)).oracle.budget == 50
    z = marked_Z()
    whole = SubgroupHandle("all", lambda w: w, z.oracle.alphabet)
    assert condense(z, whole).oracle.budget == DEFAULT_BUDGET


def test_condense_alphabet_guard():
    with pytest.raises(ValueError):
        condense(marked_Z(), h2_handle(G))


# -- escape index and orbit witness -----------------------------------------


def test_escape_index_examples():
    assert escape_index([gw("a"), gw("h")], G) == 1
    assert escape_index([], G) == 0
    assert escape_index(
        [gw("a"), gw("a^b"), gw("a^(b^-1)"), gw("h")], G
    ) == 2


def test_escape_index_ball_values():
    assert escape_index(list(enumerate_ball(ABCHS, 1)), G) == 1
    assert escape_index(list(enumerate_ball(ABCHS, 2)), G) == 1
    assert escape_index(list(enumerate_ball(ABCHS, 3)), G) == 2


def test_escape_index_positive_tie_break():
    # span {x} leaves both 1 and -1 escaping; i=0 wins, then +|i| before -|i|
    assert escape_index([gw("a^b")], G) == 0
    assert escape_index([gw("a"), gw("a^b a^(b^-1)")], G) == 1


def test_orbit_witness_claims():
    oracle = g_oracle()
    for i in (0, 1, 2, -1):
        g, k = orbit_witness(i, oracle)
        # g = (s b^i)^-1
        expected = invert(free_reduce(gw("s") * gw("b") ** i))
        assert g == expected
        # (h^2)^{s b^i} = h a^{b^i} in G
        lhs = free_reduce(parse_word(f"(h^2)^(s b^{i})", ABCHS))
        witness = free_reduce(parse_word(f"h a^(b^{i})", ABCHS))
        assert oracle.is_trivial(lhs * invert(witness))
        # the witness generates: in K, not in H2, and its square is h^2
        assert k(witness)
        assert not h2_handle(G)(witness)
        assert oracle.is_trivial(
            witness * witness * invert(gw("h^2"))
        )
    # the one builder of both words, letter for letter, over G's and E's alphabets
    for alphabet in (ABCHS, ABCHST):
        for i in range(-3, 4):
            assert escape_words(i, alphabet) == (
                free_reduce(parse_word(f"s b^{i}", alphabet)),
                free_reduce(parse_word(f"h a^(b^{i})", alphabet)),
            )


def test_cyclic_oracle_validation():
    with pytest.raises(ValueError):
        CyclicOracle(0)
    with pytest.raises(ValueError):
        CyclicOracle(None, Alphabet(("x", "y")))
