import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from markedgroups.hnn import (
    BaseOracle,
    BudgetExceededError,
    HnnOracle,
    _h_power,
    _ha_power,
    conjugate_handle,
    g_oracle,
    h2_handle,
    member_in_G,
)
from markedgroups.baumslag import eval_base, member_A, member_H2, member_HA
from markedgroups.marked import CyclicOracle, builtin_group, orbit_witness
from markedgroups.presentations import ABC, ABCH, ABCHS, ABCHST, builtin
from markedgroups.words import (
    Alphabet,
    Word,
    concat,
    free_reduce,
    gen,
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
E = builtin_group("E").oracle


# -- Britton reduction in G --------------------------------------------------


def test_britton_reduce_g_examples():
    assert render_word(G.reduce(gw("s^-1 h^2 s"))) == "h a"
    assert render_word(G.reduce(gw("s h a s^-1"))) == "h h"
    # a is not in <ha>: no pinch
    assert render_word(G.reduce(gw("s a s^-1"))) == "s a s^-1"
    # pinch-free forms come back unchanged
    assert render_word(G.reduce(gw("a b"))) == "a b"
    assert render_word(G.reduce(gw("s a s"))) == "s a s"


def test_britton_reduce_e_examples():
    assert render_word(E.reduce(ew("t^-1 h^4 t"))) == "h h h h"


def test_g_oracle_examples():
    assert G.is_trivial(gw("[h, a]"))
    assert not G.is_trivial(gw("s"))
    assert G.is_trivial(gw("(h^2)^s (h a)^-1"))


def test_e_oracle_relators():
    for rel in builtin("E").relators:
        assert E.is_trivial(rel)


def test_member_H2_in_G_examples():
    assert member_in_G(gw("h^4"), member_H2, G) == 2
    assert member_in_G(gw("s^-1 h^2 s s^-1 h^2 s"), member_H2, G) == 1  # (ha)^2 = h^2
    assert member_in_G(gw("h a"), member_H2, G) is None
    assert member_in_G(gw("s"), member_H2, G) is None


def test_member_HA_and_A_in_G():
    assert member_in_G(gw("h a"), member_HA, G) == 1
    assert member_in_G(gw("(h^2)^s"), member_HA, G) == 1  # reduces to ha
    assert member_in_G(gw("h^2"), member_HA, G) == 2
    assert member_in_G(gw("h^3 a^b a^(b^-2)"), member_A, G)
    assert not member_in_G(gw("b"), member_A, G)
    assert not member_in_G(gw("s"), member_A, G)


def test_transport_canonical_forms():
    assert render_word(G.left(zw("h^6"))) == "h h h a"
    assert render_word(G.left(zw("a h^-4 a"))) == "h^-1 h^-1"
    assert render_word(G.right(zw("(h a)^-1"))) == "h^-1 h^-1"
    assert G.left(zw("h a")) is None
    assert G.right(zw("h")) is None
    assert render_word(E.left(gw("h^4"))) == "h h h h"


@pytest.mark.parametrize("alphabet", [ABCH, ABCHST, Alphabet(("h", "x", "a"))])
def test_subgroup_power_words_are_letter_identical(alphabet):
    # the canonical words of <h^2> and <ha> are built from their letters;
    # they are the words the group operations give, letter for letter
    h, a = gen(alphabet, "h"), gen(alphabet, "a")
    for k in range(-20, 21):
        assert _h_power(alphabet, k).letters == (h ** k).letters, k
        assert _ha_power(alphabet, k).letters == (h ** k * a ** (k % 2)).letters, k


# -- subgroup handles --------------------------------------------------------


def test_handle_examples():
    h2 = h2_handle(G)
    assert h2(gw("h^2")) and not h2(gw("h a"))
    ha = orbit_witness(0, G)[1]  # <ha> = <h^2>^s
    assert ha.label == "conj(sb^0, H2)"
    assert ha(gw("h a")) and ha(gw("h^2")) and not ha(gw("a^b"))


def test_handle_canonical_words():
    # equal members give the same word, and that word equals the member
    assert render_word(h2_handle(G).contains(gw("(h a)^2"))) == "h h"
    ha = orbit_witness(0, G)[1]
    rep = ha.contains(gw("(h^2)^s h^2"))
    assert render_word(rep) == "s^-1 h h h h h h s"
    assert rep == ha.contains(gw("h^3 a"))
    assert G.is_trivial(free_reduce(concat(rep, invert(gw("(h^2)^s h^2")))))
    k = conjugate_handle(invert(gw("s b")), h2_handle(G))
    for text in ("h a^b", "(h a^b)^3", "h^-2"):
        rep = k.contains(gw(text))
        assert G.is_trivial(free_reduce(concat(rep, invert(gw(text))))), text
    assert k.contains(gw("h a")) is None


def test_conjugate_handle_h_ab():
    # g = (s b)^-1 conjugates <h^2> to <h a^b>
    g = invert(gw("s b"))
    k = conjugate_handle(g, h2_handle(G))
    assert k(gw("h a^b"))
    assert k(gw("h^2")) and k(gw("h^4"))
    assert not k(gw("h a"))


def test_trivial_conjugator_handle():
    k = conjugate_handle(gw("1"), h2_handle(G))
    h2 = h2_handle(G)
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


def parts_of(oracle, r):
    """The reduced form r split at its stable letters: the base parts and
    the signs of the stable letters between them."""
    stable = 2 * oracle.base.alphabet.arity
    parts, signs = [[]], []
    for x in r.letters:
        if x >= stable:
            signs.append(-1 if x & 1 else 1)
            parts.append([])
        else:
            parts[-1].append(x)
    return [Word(oracle.base.alphabet, tuple(p)) for p in parts], signs


@given(st.one_of(stable_heavy_words(ABCHS), stable_heavy_words(ABCHST)))
def test_reduced_form_has_no_pinch(w):
    oracle = G if w.alphabet == ABCHS else E
    r = oracle.reduce(w)
    assert r.alphabet == oracle.alphabet
    parts, signs = parts_of(oracle, r)
    assert all(part.is_reduced() for part in parts)
    for e1, g, e2 in zip(signs, parts[1:], signs[1:]):
        if e1 == -e2:
            member = oracle.left if e1 < 0 else oracle.right
            assert member(g) is None, render_word(g)


def test_reduction_strategy_agreement():
    # w^-1 meets w's pinches from the right end
    for w in random_words(ABCHST, 200, 10, seed=17):
        assert E.is_trivial(w) == E.is_trivial(invert(w))


def test_pinch_count_decreases_by_two():
    w = ew("t^-1 h^2 t t^-1 h^4 t")
    assert render_word(E.reduce(w)) == "h h h h h h"
    stable = 2 * ABCHS.arity
    # free reduction already removed one pair
    assert sum(x >= stable for x in free_reduce(w).letters) == 2


def pin_letters(rng, alphabet, depth):
    """Up to four items: a random letter, h^2, h a or an inverse, or a
    stable letter around a nested word and then its inverse, so that
    pinches, nested ones too, are common."""
    n = alphabet.arity
    h, a = 2 * alphabet.index("h"), 2 * alphabet.index("a")
    letters = []
    for _ in range(rng.randrange(0, 5)):
        r = rng.random()
        if r < 0.2:
            letters.append(rng.randrange(2 * n))
        elif r < 0.5:
            letters.extend(rng.choice(((h, h), (h + 1, h + 1), (h, a), (a, h + 1))))
        elif depth:
            x = 2 * rng.randrange(4, n) + rng.randrange(2)
            letters += [x] + pin_letters(rng, alphabet, depth - 1) + [x ^ 1]
    return letters


def test_reduced_forms_pinned():
    # SHA-256 of 2,000 rendered reduced forms; a change to the reduction
    # engine must keep them byte-identical
    lines = []
    for oracle, seed in ((G, 1), (E, 2)):
        rng = random.Random(seed)
        for _ in range(1000):
            w = Word(oracle.alphabet, tuple(pin_letters(rng, oracle.alphabet, 3)))
            lines.append(render_word(oracle.reduce(w)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "192b36a8e8c0a8ed3643cd784e9f5cc0893990fd4f14f3167ea8952a340d755d"


def test_tower_consistency():
    # w is in <h^2> <=> [w, t] dies in E
    for text in ("h^2", "h^4", "h a", "h", "s^-1 h^2 s", "a", "h^-2"):
        w = gw(text)
        in_h2 = member_in_G(w, member_H2, G) is not None
        lifted = Word(ABCHST, w.letters)
        comm = free_reduce(
            concat(
                invert(lifted), invert(ew("t")), lifted, ew("t")
            )
        )
        assert E.is_trivial(comm) == in_h2, text


def test_budget_enforced():
    tight = HnnOracle(BaseOracle(ABCH), G.left, G.right, "s", budget=8)
    with pytest.raises(BudgetExceededError):
        tight.is_trivial(gw("a b a b a b a b a"))
    # transport growth also budgeted: s h^6 s^-1 wants (via right member) none,
    # but s^-1 h^k s explodes into (ha)^k
    tight2 = HnnOracle(BaseOracle(ABCH), G.left, G.right, "s", budget=6)
    with pytest.raises(BudgetExceededError):
        tight2.is_trivial(gw("s^-1 h^6 s"))


def test_base_part_budget():
    # 10 letters pass the input check; the nested pinches grow h a to h^16
    w = gw("s s s s h a s^-1 s^-1 s^-1 s^-1")
    message = r"^base part grew to 16 letters \(budget 10\)$"
    with pytest.raises(BudgetExceededError, match=message):
        g_oracle(10).reduce(w)
    assert render_word(g_oracle(16).reduce(w)) == " ".join(["h"] * 16)


def test_oracles_reject_foreign_alphabets():
    permuted = Alphabet(("b", "a", "c", "h", "s"))
    for oracle, w in (
        (G, parse_word("a a", permuted)),  # read by index, this would be b b
        (E, gw("a a")),
        (G, ew("a a")),
        (BaseOracle(ABCH), parse_word("a a", Alphabet(("b", "a", "c", "h")))),
        (BaseOracle(ABCH), parse_word("a a", ABC)),
        (BaseOracle(ABC), zw("a a")),
        (CyclicOracle(2), parse_word("y y", Alphabet(("y",)))),
    ):
        with pytest.raises(ValueError):
            oracle.is_trivial(w)


def test_b_oracle():
    oracle = BaseOracle(ABC)
    assert oracle.is_trivial(parse_word("a^2", oracle.alphabet))
    assert not oracle.is_trivial(parse_word("a b", oracle.alphabet))
