import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import markedgroups.baumslag as baumslag
import markedgroups.hnn as hnn
from markedgroups.hnn import (
    BaseOracle,
    BudgetExceededError,
    HnnOracle,
    _h_power,
    _ha_power,
    conjugate_handle,
    g_oracle,
    h2_handle,
)
from markedgroups.baumslag import a_module, eval_base
from markedgroups.marked import (
    CyclicOracle,
    MarkedGroup,
    builtin_group,
    condense,
    orbit_witness,
)
from markedgroups.presentations import ABC, ABCH, ABCHS, ABCHST, builtin
from markedgroups.words import (
    Alphabet,
    Word,
    concat,
    conjugate,
    free_reduce,
    gen,
    invert,
    parse_word,
    render_word,
)
from test_baumslag import member_A, member_H2, member_HA


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


def base_letters(text, oracle=G):
    """The letters of the reduced form of the word in G, or None when it
    keeps a stable letter."""
    return oracle.in_base(free_reduce(gw(text)).letters)


def in_base_element(text):
    """The element of <h> x B equal to the word in G, by eval_base, the
    reference, on its reduced form, or None off <h> x B."""
    out = base_letters(text)
    return None if out is None else eval_base(Word(ABCH, tuple(out)))


def test_member_H2_in_G_examples():
    assert member_H2(in_base_element("h^4")) == 2
    assert member_H2(in_base_element("s^-1 h^2 s s^-1 h^2 s")) == 1  # (ha)^2 = h^2
    assert member_H2(in_base_element("h a")) is None
    assert in_base_element("s") is None


def test_member_HA_and_A_in_G():
    assert member_HA(in_base_element("h a")) == 1
    assert member_HA(in_base_element("(h^2)^s")) == 1  # reduces to ha
    assert member_HA(in_base_element("h^2")) == 2
    # a_module reads the reduced form's letters as eval_base's element
    for text, in_a in (
        ("h^3 a^b a^(b^-2)", True), ("(h^2)^(s b)", True),  # h a^b
        ("b", False), ("a^(c^-1)", False),
    ):
        m = a_module(base_letters(text))
        assert (m is not None) is in_a, text
        assert m == member_A(in_base_element(text)), text
    assert base_letters("s") is None


def test_transport_canonical_forms():
    # the maps take and return letter tuples
    assert G.left(zw("h^6").letters) == zw("h h h a").letters
    assert G.left(zw("a h^-4 a").letters) == zw("h^-1 h^-1").letters
    assert G.right(zw("(h a)^-1").letters) == zw("h^-1 h^-1").letters
    assert G.left(zw("h a").letters) is None
    assert G.right(zw("h").letters) is None
    assert E.left(gw("h^4").letters) == gw("h h h h").letters


@pytest.mark.parametrize("alphabet", [ABCH, ABCHS, ABCHST])
def test_subgroup_power_words_are_letter_identical(alphabet):
    # the canonical words of <h^2> and <ha> are built from the letters of
    # h and a, which are the same over every alphabet of the tower; they
    # are the words the group operations give, letter for letter
    h, a = gen(alphabet, "h"), gen(alphabet, "a")
    for k in range(-20, 21):
        assert _h_power(k) == (h ** k).letters, k
        assert _ha_power(k) == (h ** k * a ** (k % 2)).letters, k


# -- subgroup handles --------------------------------------------------------


def test_handle_examples():
    h2 = h2_handle(G)
    assert h2(gw("h^2")) and not h2(gw("h a"))
    ha = orbit_witness(0, G)[1]  # <ha> = <h^2>^s
    assert ha.label == "conj(sb^0, H2)"
    assert ha(gw("h a")) and ha(gw("h^2")) and not ha(gw("a^b"))


def test_handle_canonical_words():
    # equal members give the same word, and that word equals the member;
    # contains takes and returns letter tuples
    rep = Word(ABCHS, h2_handle(G).contains(gw("(h a)^2").letters))
    assert render_word(rep) == "h h"
    ha = orbit_witness(0, G)[1]
    rep = Word(ABCHS, ha.contains(gw("(h^2)^s h^2").letters))
    assert render_word(rep) == "s^-1 h h h h h h s"
    assert rep.letters == ha.contains(gw("h^3 a").letters)
    assert G.is_trivial(free_reduce(concat(rep, invert(gw("(h^2)^s h^2")))))
    k = conjugate_handle(invert(gw("s b")), h2_handle(G))
    for text in ("h a^b", "(h a^b)^3", "h^-2"):
        rep = Word(ABCHS, k.contains(gw(text).letters))
        assert G.is_trivial(free_reduce(concat(rep, invert(gw(text))))), text
    assert k.contains(gw("h a").letters) is None


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
            assert member(g.letters) is None, render_word(g)


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


def test_empty_part_calls_no_map():
    # Products of conjugated relators of E are trivial, and their inner
    # pinches leave many empty parts t^-1 1 t and s^-1 1 s: the fold
    # cancels those with no call to a map of E or of G.
    e = builtin_group("E").oracle
    parts = []

    def counted(member):
        def call(w):
            parts.append(len(w))
            return member(w)

        return call

    for oracle in (e, e.base):
        oracle.left, oracle.right = counted(oracle.left), counted(oracle.right)
    relators = builtin("E").relators
    rng = random.Random(3)
    for w in conjugated_relator_products(relators, ABCHST, rng, 200):
        assert e.is_trivial(w)
    assert len(parts) > 200 and 0 not in parts


def conjugated_relator_products(relators, alphabet, rng, count):
    """Products of 1 to 4 relators or their inverses, each conjugated by a
    word of at most 3 letters: trivial words with many inner pinches."""
    words = []
    for _ in range(count):
        factors = []
        for _ in range(rng.randrange(1, 5)):
            letters = range(rng.randrange(4))
            u = Word(alphabet, tuple(rng.randrange(2 * alphabet.arity) for _ in letters))
            r = rng.choice(relators)
            factors.append(conjugate(invert(r) if rng.random() < 0.5 else r, u))
        words.append(concat(*factors))
    return words


def test_fold_builds_no_word_or_base_element(monkeypatch):
    # E's and G's is_trivial decide every part, and the reduced form, on
    # the base group's raw coordinates: no Word of a part and no
    # BaseElement is built below the word that enters
    rng = random.Random(29)
    cases = []
    for group, alphabet in (("E", ABCHST), ("G", ABCHS)):
        oracle = builtin_group(group).oracle
        relators = builtin(group).relators
        for w in conjugated_relator_products(relators, alphabet, rng, 100):
            stray = concat(w, gen(alphabet, rng.choice("abch")))
            cases += [(oracle, w, True), (oracle, stray, False)]

    def refuse(*args):
        raise AssertionError("built inside the fold")

    monkeypatch.setattr(baumslag, "eval_base", refuse)
    monkeypatch.setattr(hnn, "_word", refuse)
    for oracle, w, trivial in cases:
        assert oracle.is_trivial(w) is trivial, render_word(w)
    assert E.is_trivial(ew("[t, h^2]")) and not E.is_trivial(ew("[t, h a]"))


@pytest.mark.parametrize("group", ["B", "ZxB"])
def test_base_oracle_decides_on_raw_letters(monkeypatch, group):
    # is_trivial and decide both read h2_exponent on the letters, reduced
    # or not; eval_base, outside the oracle, is the reference
    rng = random.Random(31)
    alphabet, relators = builtin(group).alphabet, builtin(group).relators
    words = conjugated_relator_products(relators, alphabet, rng, 150)
    words += [
        Word(alphabet, tuple(rng.randrange(2 * alphabet.arity) for _ in range(n)))
        for n in (rng.randrange(12) for _ in range(300))
    ]
    expected = [eval_base(w).is_identity() for w in words]
    assert 150 <= sum(expected) < len(words)
    monkeypatch.setattr(baumslag, "eval_base", None)
    oracle = BaseOracle(alphabet)
    for w, trivial in zip(words, expected):
        assert oracle.is_trivial(w) is trivial, render_word(w)
        assert oracle.decide(w.letters) is trivial, render_word(w)


def test_tower_consistency():
    # w is in <h^2> <=> [w, t] dies in E
    for text in ("h^2", "h^4", "h a", "h", "s^-1 h^2 s", "a", "h^-2"):
        w = gw(text)
        z = in_base_element(text)
        in_h2 = z is not None and member_H2(z) is not None
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


def test_fold_reduces_its_input_first():
    # t t^-1 in the middle: free reduction cancels the whole word, while a
    # pinch test of its first part, s^13 h^2 s^-13 = h^16384 in G, is
    # refused by the budget
    half = ew("t^-1 s^13 h^2 s^-13 t")
    w = concat(half, ew("t^-1 s^13 h^-2 s^-13 t"))
    assert len(w) == 60 and not w.is_reduced()
    assert E.is_trivial(w)
    with pytest.raises(BudgetExceededError, match=r"^base part grew to 16384 letters"):
        E.is_trivial(half)


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
    # the fold reads a base part of G by index, as letters of <h> x B
    with pytest.raises(ValueError, match="no base group over"):
        BaseOracle(ABCHS)


def test_handles_reject_foreign_alphabets():
    # handles read letters by index, so a word over another alphabet is
    # refused where it enters: a conjugator when the handle is built, and
    # a word when the handle is called on it
    permuted = Alphabet(("b", "a", "c", "h", "s"))
    for g in (parse_word("s b", permuted), ew("s b")):
        with pytest.raises(ValueError, match="given to a group over"):
            conjugate_handle(g, h2_handle(G))
    # read by index, a a would be b b and h h over ABCHST would be h h
    for w in (parse_word("a a", permuted), ew("h h"), ew("t")):
        for handle in (h2_handle(G), orbit_witness(1, G)[1]):
            with pytest.raises(ValueError, match="given to a group over"):
                handle(w)
    # <h^2> reads reduced forms as letters of <h> x B: E's keep an s
    with pytest.raises(ValueError, match="needs an extension of <h> x B"):
        h2_handle(E)


def test_maps_receive_reduced_letter_tuples():
    # every part the fold hands to a map, at each level of E and of an
    # extension over a conjugate point, is a freely reduced tuple of base
    # letters within the budget, and every image is such a tuple or None
    g = builtin_group("G")
    extensions = [
        builtin_group("E").oracle,
        condense(g, orbit_witness(1, g.oracle)[1]).oracle,
    ]
    calls = []

    def reduced_base_letters(oracle, letters):
        bound = 2 * oracle.base.alphabet.arity
        return (
            type(letters) is tuple
            and all(type(x) is int and 0 <= x < bound for x in letters)
            and all(x ^ y != 1 for x, y in zip(letters, letters[1:]))
        )

    def checked(oracle, member):
        def call(part):
            assert reduced_base_letters(oracle, part), part
            assert len(part) <= oracle.budget
            image = member(part)
            assert image is None or reduced_base_letters(oracle, image), image
            calls.append(oracle.stable)
            return image

        return call

    for e in extensions:
        for oracle in (e, e.base):
            oracle.left = checked(oracle, oracle.left)
            oracle.right = checked(oracle, oracle.right)
    relators = builtin("E").relators
    rng = random.Random(13)
    for e in extensions:
        for _ in range(300):
            e.reduce(Word(ABCHST, tuple(pin_letters(rng, ABCHST, 3))))
    for _ in range(300):
        u = Word(ABCHST, tuple(rng.randrange(12) for _ in range(rng.randrange(4))))
        assert extensions[0].is_trivial(conjugate(rng.choice(relators), u))
    assert calls.count("t") > 500 and calls.count("s") > 500


def test_input_budget_is_read_where_a_word_enters():
    # a word from outside is measured before it is reduced; a conjugate
    # handle measures g^-1 z g after it is reduced
    tight = g_oracle(10)
    w = gw("a a^-1 a a^-1 a a^-1 a a^-1 a a^-1 a a^-1 h^2")
    assert len(w) == 14
    extension = condense(MarkedGroup("G", tight), h2_handle(tight)).oracle
    for call in (
        lambda: tight.is_trivial(w),
        lambda: tight.reduce(w),
        lambda: extension.is_trivial(Word(ABCHST, w.letters)),
        lambda: extension.reduce(Word(ABCHST, w.letters)),
        lambda: h2_handle(tight)(w),
    ):
        with pytest.raises(BudgetExceededError, match=r"^input word has 14 letters"):
            call()
    assert conjugate_handle(gw("b"), h2_handle(tight))(w)  # b^-1 h^2 b
    k = conjugate_handle(gw("b^5"), h2_handle(tight))  # b^-5 h^2 b^5 has 12 letters
    with pytest.raises(BudgetExceededError, match=r"^input word has 12 letters"):
        k(gw("h^2"))


def test_b_oracle():
    oracle = BaseOracle(ABC)
    assert oracle.is_trivial(parse_word("a^2", oracle.alphabet))
    assert not oracle.is_trivial(parse_word("a b", oracle.alphabet))
