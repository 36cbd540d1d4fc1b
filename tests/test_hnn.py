import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from markedgroups.hnn import (
    BOracle,
    BudgetExceededError,
    HnnOracle,
    UndecidableSpecError,
    ZxBOracle,
    conjugate_handle,
    e_oracle,
    g_oracle,
    g_pair,
    handle_for,
    member_in_G,
    split,
)
from markedgroups.baumslag import eval_base, member_A, member_H2, member_HA
from markedgroups.marked import CyclicOracle
from markedgroups.presentations import ABC, ABCH, ABCHS, ABCHST, builtin
from markedgroups.words import (
    Alphabet,
    Word,
    concat,
    free_reduce,
    invert,
    parse_word,
    render_word,
)


def zw(text):
    return parse_word(text, ABCH)


def gw(text):
    return parse_word(text, ABCHS)


def ew(text):
    return parse_word(text, ABCHST)


G = g_oracle()
E = e_oracle()


# -- split -------------------------------------------------------------------


def test_split_examples():
    bw = split(gw("s^-1 h h s"), ABCH)
    assert render_word(bw.head) == "1"
    assert [(e, render_word(g)) for e, g in bw.tail] == [
        (-1, "h h"), (1, "1")
    ]
    bw2 = split(gw("a b"), ABCH)
    assert bw2.stable_count == 0 and render_word(bw2.head) == "a b"
    bw3 = split(gw("s a s"), ABCH)
    assert [(e, render_word(g)) for e, g in bw3.tail] == [(1, "a"), (1, "1")]


# -- Britton reduction in G --------------------------------------------------


def test_britton_reduce_g_examples():
    bw = G.reduce(gw("s^-1 h^2 s"))
    assert bw.stable_count == 0 and render_word(bw.head) == "h a"
    bw2 = G.reduce(gw("s h a s^-1"))
    assert bw2.stable_count == 0 and render_word(bw2.head) == "h h"
    bw3 = G.reduce(gw("s a s^-1"))  # a not in <ha>: no pinch
    assert bw3.stable_count == 2


def test_britton_reduce_e_examples():
    bw = E.reduce(ew("t^-1 h^4 t"))
    assert bw.stable_count == 0
    assert render_word(bw.head) == "h h h h"


def test_g_oracle_examples():
    assert G.is_trivial(gw("[h, a]"))
    assert not G.is_trivial(gw("s"))
    assert G.is_trivial(gw("(h^2)^s (h a)^-1"))


def test_e_oracle_relators():
    for rel in builtin("E").relators:
        assert E.is_trivial(rel)


def test_member_H2_in_G_examples():
    assert member_in_G(gw("h^4"), member_H2) == 2
    assert member_in_G(gw("s^-1 h^2 s s^-1 h^2 s"), member_H2) == 1  # (ha)^2 = h^2
    assert member_in_G(gw("h a"), member_H2) is None
    assert member_in_G(gw("s"), member_H2) is None


def test_member_HA_and_A_in_G():
    assert member_in_G(gw("h a"), member_HA) == 1
    assert member_in_G(gw("(h^2)^s"), member_HA) == 1  # reduces to ha
    assert member_in_G(gw("h^2"), member_HA) == 2
    assert member_in_G(gw("h^3 a^b a^(b^-2)"), member_A)
    assert not member_in_G(gw("b"), member_A)
    assert not member_in_G(gw("s"), member_A)


def test_transport_canonical_forms():
    pair = g_pair()
    assert render_word(pair.member_left(zw("h^6"))) == "h h h a"
    assert render_word(pair.member_left(zw("a h^-4 a"))) == "h^-1 h^-1"
    assert render_word(pair.member_right(zw("(h a)^-1"))) == "h^-1 h^-1"
    assert pair.member_left(zw("h a")) is None
    assert pair.member_right(zw("h")) is None
    assert render_word(E.pair.member_left(gw("h^4"))) == "h h h h"


# -- subgroup handles --------------------------------------------------------


def test_handle_examples():
    h2 = handle_for("H2")
    assert h2(gw("h^2")) and not h2(gw("h a"))
    ha = handle_for("HA")
    assert ha(gw("h a")) and ha(gw("h^2")) and not ha(gw("a^b"))
    sub_a = handle_for("A")
    assert sub_a(gw("h a^(b^3)")) and not sub_a(gw("c"))
    with pytest.raises(UndecidableSpecError):
        handle_for("mystery")


def test_handle_canonical_words():
    # equal members give the same word, and that word equals the member
    assert render_word(handle_for("H2").contains(gw("(h a)^2"))) == "h h"
    assert render_word(handle_for("HA").contains(gw("(h^2)^s h^2"))) == "h h h a"
    sub_a = handle_for("A")
    for u, v in (
        ("h^3 a^b a^(b^-2)", "a^(b^-2) h a^b h^2"),
        ("a^c", "a a^b"),
        ("(h^2)^s (h a)^-1 h^-1 a^(b^-1)", "a^(b^-1) h^-1"),
    ):
        rep = sub_a.contains(gw(u))
        assert rep is not None and rep == sub_a.contains(gw(v)), u
        assert G.is_trivial(free_reduce(concat(rep, invert(gw(u))))), u
    k = conjugate_handle(invert(gw("s b")), handle_for("H2"))
    for text in ("h a^b", "(h a^b)^3", "h^-2"):
        rep = k.contains(gw(text))
        assert G.is_trivial(free_reduce(concat(rep, invert(gw(text))))), text
    assert k.contains(gw("h a")) is None


def test_conjugate_handle_h_ab():
    # g = (s b)^-1 conjugates <h^2> to <h a^b>
    g = invert(gw("s b"))
    k = conjugate_handle(g, handle_for("H2"))
    assert k(gw("h a^b"))
    assert k(gw("h^2")) and k(gw("h^4"))
    assert not k(gw("h a"))


def test_trivial_conjugator_handle():
    k = conjugate_handle(gw("1"), handle_for("H2"))
    h2 = handle_for("H2")
    rng = random.Random(11)
    for _ in range(20):
        letters = tuple(
            2 * rng.randrange(5) + (rng.choice((1, -1)) < 0)
            for _ in range(rng.randrange(0, 9))
        )
        w = Word(ABCHS, letters)
        assert k(w) == h2(w)


# -- oracle laws -------------------------------------------------------------


def random_words(alphabet, count, max_len, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        letters = tuple(
            2 * rng.randrange(alphabet.arity) + (rng.choice((1, -1)) < 0)
            for _ in range(rng.randrange(0, max_len + 1))
        )
        out.append(Word(alphabet, letters))
    return out


def test_soundness_sample():
    relators = builtin("E").relators
    rng = random.Random(5)
    for w in random_words(ABCHST, 150, 12, seed=2):
        assert E.is_trivial(free_reduce(concat(w, invert(w))))
        u = random.Random(rng.random()).choice(
            random_words(ABCHST, 1, 4, seed=rng.randrange(10**6)) or [w]
        )
        conj = free_reduce(concat(u, w, invert(u)))
        assert E.is_trivial(conj) == E.is_trivial(w)
        # relator insertion invariance
        rel = relators[rng.randrange(len(relators))]
        pos = rng.randrange(len(w.letters) + 1)
        spliced = Word(
            ABCHST, w.letters[:pos] + rel.letters + w.letters[pos:]
        )
        assert E.is_trivial(spliced) == E.is_trivial(w)


def test_base_completeness_sample():
    # words without stable letters: G-oracle agrees with direct evaluation
    for w in random_words(ABCH, 300, 14, seed=9):
        lifted = Word(ABCHS, w.letters)
        assert G.is_trivial(lifted) == eval_base(w).is_identity()


@st.composite
def stable_heavy_words(draw, alphabet):
    # h and the stable letter are drawn often, so that pinches are common
    n = alphabet.arity
    letter = st.tuples(
        st.one_of(st.sampled_from((3, n - 1)), st.integers(0, n - 1)),
        st.sampled_from((1, -1)),
    ).map(lambda t: 2 * t[0] + (t[1] < 0))
    return Word(alphabet, tuple(draw(st.lists(letter, max_size=24))))


@given(st.one_of(stable_heavy_words(ABCHS), stable_heavy_words(ABCHST)))
def test_reduced_form_has_no_pinch(w):
    oracle = G if w.alphabet == ABCHS else E
    bw = oracle.reduce(w)
    parts = [bw.head] + [g for _, g in bw.tail]
    assert all(part.is_reduced() for part in parts)
    for (e1, g), (e2, _) in zip(bw.tail, bw.tail[1:]):
        if e1 == -e2:
            member = oracle.pair.member_left if e1 < 0 else oracle.pair.member_right
            assert member(g) is None, render_word(g)


def test_reduction_strategy_agreement():
    for w in random_words(ABCHST, 200, 10, seed=17):
        left = E.is_trivial(w, strategy="leftmost")
        right = E.is_trivial(w, strategy="rightmost")
        assert left == right


def test_pinch_count_decreases_by_two():
    bw = E.reduce(ew("t^-1 h^2 t t^-1 h^4 t"))
    assert bw.stable_count == 0
    start = split(free_reduce(ew("t^-1 h^2 t t^-1 h^4 t")), ABCHS)
    assert start.stable_count == 2  # free reduction already removed one pair


def test_tower_consistency():
    # w is in <h^2> <=> [w, t] dies in E
    for text in ("h^2", "h^4", "h a", "h", "s^-1 h^2 s", "a", "h^-2"):
        w = gw(text)
        in_h2 = member_in_G(w, member_H2) is not None
        lifted = Word(ABCHST, w.letters)
        comm = free_reduce(
            concat(
                invert(lifted), invert(ew("t")), lifted, ew("t")
            )
        )
        assert E.is_trivial(comm) == in_h2, text


def test_budget_enforced():
    tight = HnnOracle(ZxBOracle(), g_pair(), "s", budget=8)
    with pytest.raises(BudgetExceededError):
        tight.is_trivial(gw("a b a b a b a b a"))
    # transport growth also budgeted: s h^6 s^-1 wants (via right member) none,
    # but s^-1 h^k s explodes into (ha)^k
    tight2 = HnnOracle(ZxBOracle(), g_pair(), "s", budget=6)
    with pytest.raises(BudgetExceededError):
        tight2.is_trivial(gw("s^-1 h^6 s"))


def test_oracles_reject_foreign_alphabets():
    permuted = Alphabet(("b", "a", "c", "h", "s"))
    for oracle, w in (
        (G, parse_word("a a", permuted)),  # read by index, this would be b b
        (E, gw("a a")),
        (G, ew("a a")),
        (ZxBOracle(), parse_word("a a", Alphabet(("b", "a", "c", "h")))),
        (ZxBOracle(), parse_word("a a", ABC)),
        (BOracle(), zw("a a")),
        (CyclicOracle(2), parse_word("y y", Alphabet(("y",)))),
    ):
        with pytest.raises(ValueError):
            oracle.is_trivial(w)


def test_b_oracle():
    oracle = BOracle()
    assert oracle.is_trivial(parse_word("a^2", oracle.alphabet))
    assert not oracle.is_trivial(parse_word("a b", oracle.alphabet))
