import hashlib
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from markedgroups.words import (
    DEFAULT_BUDGET,
    Alphabet,
    BudgetExceededError,
    Substitution,
    Word,
    WordSyntaxError,
    ball_size,
    commutator,
    concat,
    conjugate,
    enumerate_ball,
    enumerate_sphere,
    free_reduce,
    gen,
    invert,
    parse_word,
    render_word,
    sort_key,
    substitute,
)

AB = Alphabet(("a", "b"))
A1 = Alphabet(("a",))
SHT = Alphabet(("h", "s"))


def w(text, alphabet=AB):
    return parse_word(text, alphabet)


# -- alphabets ---------------------------------------------------------------


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("1bad",))
    assert Alphabet(("x_1", "Y2")).arity == 2


@pytest.mark.parametrize("letters", [(4,), (-1,), ((0, 1),)])
def test_word_rejects_bad_letters(letters):
    # a letter is one int: 2*i for generator i, 2*i + 1 for its inverse
    with pytest.raises(ValueError):
        Word(AB, letters)


def test_letter_order_is_generator_then_inverse():
    assert [render_word(u) for u in enumerate_sphere(AB, 1)] == [
        "a", "a^-1", "b", "b^-1"
    ]


def test_alphabet_extend_conflict():
    with pytest.raises(ValueError):
        AB.extend("a")
    assert AB.extend("c").names == ("a", "b", "c")


# -- free reduction ----------------------------------------------------------


def test_free_reduce_examples():
    assert render_word(free_reduce(w("a a^-1 b"))) == "b"
    assert free_reduce(w("")).letters == ()
    assert render_word(free_reduce(w("a b b^-1 a"))) == "a a"


def test_invert_examples():
    assert render_word(invert(w("a b"))) == "b^-1 a^-1"
    assert invert(w("")).letters == ()
    v = parse_word("s^-1 h h s", SHT)
    assert render_word(invert(v)) == "s^-1 h^-1 h^-1 s"


@st.composite
def words(draw, alphabet=AB, max_len=20):
    n = alphabet.arity
    letters = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))).map(
                lambda t: 2 * t[0] + (t[1] < 0)
            ),
            max_size=max_len,
        )
    )
    return Word(alphabet, tuple(letters))


@given(words())
def test_free_reduce_idempotent(u):
    assert free_reduce(free_reduce(u)) == free_reduce(u)
    assert len(free_reduce(u)) <= len(u)


@given(words(), words())
def test_free_reduce_respects_concat(u, v):
    direct = free_reduce(concat(u, v))
    staged = free_reduce(concat(free_reduce(u), free_reduce(v)))
    assert direct == staged


@given(words())
def test_invert_involution_and_cancellation(u):
    assert invert(invert(u)) == u
    assert free_reduce(concat(u, invert(u))).letters == ()


# -- substitution ------------------------------------------------------------


def test_substitute_examples():
    x12 = Alphabet(("x1", "x2"))
    sigma = Substitution(x12, AB, (gen(AB, "a"), gen(AB, "b")))
    assert render_word(substitute(parse_word("x1 x2", x12), sigma)) == "a b"
    sigma2 = Substitution(x12, AB, (w("a b"), gen(AB, "b")))
    assert render_word(substitute(parse_word("x1^-1", x12), sigma2)) == "b^-1 a^-1"


def test_substitute_epsilon_shape():
    # t -> b^-i s^-1 t s b^i for i = 1
    alphabet = Alphabet(("b", "s", "t"))
    target = parse_word("b^-1 s^-1 t s b", alphabet)
    sigma = Substitution(
        alphabet,
        alphabet,
        (gen(alphabet, "b"), gen(alphabet, "s"), target),
    )
    assert substitute(gen(alphabet, "t"), sigma) == target


@given(words(), words())
def test_substitute_homomorphic(u, v):
    sigma = Substitution(AB, AB, (w("a b"), w("b^-1 a")))
    left = substitute(free_reduce(concat(u, v)), sigma)
    right = free_reduce(concat(substitute(u, sigma), substitute(v, sigma)))
    assert left == right


# -- enumeration -------------------------------------------------------------


def brute_force_ball(alphabet, r):
    """Independent oracle: generate all letter strings, keep reduced ones."""
    n = alphabet.arity
    letters = [2 * i + (s < 0) for i in range(n) for s in (1, -1)]
    out = set()
    for length in range(r + 1):
        for combo in itertools.product(letters, repeat=length):
            word = Word(alphabet, combo)
            if word.is_reduced():
                out.add(combo)
    return out


def test_ball_examples():
    ball = list(enumerate_ball(A1, 2))
    assert [render_word(u) for u in ball] == [
        "1", "a", "a^-1", "a a", "a^-1 a^-1"
    ]
    assert len(list(enumerate_ball(AB, 1))) == 5
    assert ball_size(6, 3) == 1597


def test_ball_count_matches_exhaustive():
    for n, r in [(1, 5), (2, 4), (3, 3)]:
        alphabet = Alphabet(tuple(f"g{k}" for k in range(n)))
        enumerated = [u.letters for u in enumerate_ball(alphabet, r)]
        assert len(enumerated) == len(set(enumerated)) == ball_size(n, r)
        assert set(enumerated) == brute_force_ball(alphabet, r)


def test_ball_order_is_length_then_lex():
    keys = [sort_key(u) for u in enumerate_ball(AB, 3)]
    assert keys == sorted(keys)


def test_sphere_lengths():
    for r in range(4):
        for u in enumerate_sphere(AB, r):
            assert len(u) == r and u.is_reduced()


def _sums(u, generator):
    return sum(1 if x == 2 * generator else -1 if x == 2 * generator + 1 else 0
               for x in u.letters)


@pytest.mark.parametrize("coordinates", [(0,), (1,), (0, 1), (1, 0)])
def test_ball_coordinates_filter_in_order(coordinates):
    # the pruned walk yields exactly the zero-sum words of the full walk,
    # in the same order, on every sphere and ball
    for r in range(6):
        full = list(enumerate_ball(AB, r))
        expected = [u for u in full if all(_sums(u, i) == 0 for i in coordinates)]
        assert list(enumerate_ball(AB, r, coordinates)) == expected
        sphere = [u for u in expected if len(u) == r]
        assert list(enumerate_sphere(AB, r, coordinates)) == sphere
    assert list(enumerate_ball(AB, 4, ())) == list(enumerate_ball(AB, 4))


def test_ball_coordinates_out_of_range():
    with pytest.raises(ValueError):
        list(enumerate_ball(AB, 2, (2,)))


# -- grammar -----------------------------------------------------------------


def test_parse_sugar():
    assert render_word(w("a^2")) == "a a"
    assert render_word(w("a^-2")) == "a^-1 a^-1"
    assert render_word(w("[a, b]")) == "a^-1 b^-1 a b"
    assert render_word(w("(a^2)^b")) == "b^-1 a a b"
    assert w("1").letters == ()
    hs = parse_word("(h^2)^s", SHT)
    assert render_word(hs) == "s^-1 h h s"
    # a power reads the same with or without whitespace
    assert render_word(w("a ^ -1")) == render_word(w("a^ -1")) == "a^-1"
    assert w("a^2^3") == w("a^6") == w("a a a a a a")
    assert w("a^-0").letters == () and render_word(w("a^01 b")) == "a b"
    # leading zeros past int()'s digit limit
    assert render_word(w("a^" + "0" * 5000 + "1")) == "a"
    xs = Alphabet(("x", "x_1", "x_10"))
    assert render_word(parse_word("x_1^-2 x_10 x", xs)) == "x_1^-1 x_1^-1 x_10 x"
    assert render_word(parse_word("x_1 ^ 2", xs)) == "x_1 x_1"
    assert render_word(parse_word("x_1 ^ -2", xs)) == "x_1^-1 x_1^-1"
    for text in ("q^2", "q ^ 2"):
        with pytest.raises(
            WordSyntaxError, match=r"^unknown generator 'q' \(line 1, col 1\)$"
        ):
            parse_word(text, AB, 1)
    # w^k = u v^k u^-1 for w = u v u^-1, measured as 2|u| + |k||v|
    assert render_word(parse_word("(a b a^-1)^-3", AB, budget=5)) == (
        "a b^-1 b^-1 b^-1 a^-1"
    )
    with pytest.raises(
        BudgetExceededError, match=r"^word expands to 5 letters \(budget 4\)$"
    ):
        parse_word("(a b a^-1)^-3", AB, budget=4)
    with pytest.raises(
        BudgetExceededError, match=r"^word expands to 20000 letters \(budget 10000\)$"
    ):
        w("a^20000")
    # a^-1 is one inverse letter wherever the budget admits it
    assert parse_word("(a^-1)^b", AB, budget=3).letters == (3, 1, 2)
    assert parse_word("b^a^-1", AB, budget=3).letters == (1, 3, 0)  # (b^a)^-1
    assert parse_word("a^-1 b^-1^2 a^-1", AB, budget=4).letters == (1, 3, 3, 1)
    for text in ("a^-1", "[a^-1, 1]", "a^-1^0"):
        with pytest.raises(
            BudgetExceededError, match=r"^word expands to 1 letters \(budget 0\)$"
        ):
            parse_word(text, AB, budget=0)
    # "^" after a plain letter makes it the base of a power
    assert render_word(w("a b^2")) == render_word(w("a b ^2")) == "a b b"
    assert render_word(w("a b^-1^2")) == "a b^-1 b^-1"
    assert w("a b^-12").letters == (0,) + (3,) * 12
    assert w("a\tb^-1\na  \t b").letters == (0, 3, 0, 2)
    # a conjugator is one atom: b^a c is (b^a) c
    assert render_word(w("b^a c", Alphabet(("a", "b", "c")))) == "a^-1 b a c"
    assert render_word(w("b^a^-1 c", Alphabet(("a", "b", "c")))) == "a^-1 b^-1 a c"
    # an unknown name among plain letters is refused at its own column
    with pytest.raises(WordSyntaxError, match=r"^unknown generator 'q' \(line 1, col 8\)$"):
        parse_word("a b^-1 q a", AB, 1)
    # plain letters past the budget are refused at the first letter past it
    for budget in (0, 1, 5):
        for text in ("a b a^-1 b a b a", "a^-1 b a b a b a", "(a b a b a b a)"):
            with pytest.raises(
                BudgetExceededError,
                match=rf"^word expands to {budget + 1} letters \(budget {budget}\)$",
            ):
                parse_word(text, AB, budget=budget)
    with pytest.raises(
        BudgetExceededError, match=r"^word expands to 6 letters \(budget 5\) \(line 2\)$"
    ):
        parse_word("a^3 b a b a", AB, 2, budget=5)


def test_parse_conjugation_matches_convention():
    # x^y = y^-1 x y
    a, b = gen(AB, "a"), gen(AB, "b")
    assert w("a^b") == conjugate(a, b)
    assert w("[a, b]") == commutator(a, b)
    # a conjugator takes no exponent of its own: b^a^2 is (b^a)^2
    assert w("b^a^2") == w("b^ a^2") == w("(b^a)^2") == conjugate(b, a) ** 2
    assert render_word(w("b^a^2")) == "a^-1 b b a"
    assert w("a^2^b") == conjugate(a ** 2, b)
    assert w("[a^2, b]^a^-1") == conjugate(commutator(a ** 2, b), a) ** -1


def test_parse_compound_conjugator():
    alphabet = Alphabet(("b", "s", "t"))
    assert (
        render_word(parse_word("t^(s b)", alphabet))
        == "b^-1 s^-1 t s b"
    )


def test_parse_errors():
    with pytest.raises(WordSyntaxError):
        w("a^")
    with pytest.raises(WordSyntaxError):
        w("(a b")
    with pytest.raises(WordSyntaxError):
        w("z")
    with pytest.raises(WordSyntaxError):
        w("a !")


def test_parse_nesting_limit():
    # each level of brackets costs three parser frames, so depth is capped
    assert render_word(w("(" * 100 + "a" + ")" * 100)) == "a"
    assert render_word(w("[" * 99 + "(a b)" + ", 1]" * 99)) == "1"
    with pytest.raises(WordSyntaxError, match=r"nested deeper than 100 \(line 2, col 101\)"):
        parse_word("(" * 101 + "a" + ")" * 101, AB, 2)


def test_parse_budget_is_default():
    # a huge exponent is refused by the default budget before it is
    # expanded, not by an OverflowError or an allocation of its letters
    with pytest.raises(BudgetExceededError, match=r"\(budget 10000\)$"):
        parse_word("a^99999999999999999999999", AB)
    assert len(parse_word("a^10000", AB)) == DEFAULT_BUDGET
    with pytest.raises(BudgetExceededError):
        parse_word("a^10001", AB)


def test_parse_power_of_empty_word():
    huge = "99999999999999999999999"
    assert parse_word(f"1^{huge}", AB).letters == ()
    assert parse_word(f"(a a^-1)^-{huge} b", AB, budget=100).letters == (2,)
    assert Word(AB, ()) ** int(huge) == Word(AB, ())
    assert Word(AB, (0, 1)) ** int(huge) == Word(AB, ())  # a a^-1


def test_power_of_word():
    # w ** k = u v^k u^-1 for w = u v u^-1, built at its reduced length
    assert (parse_word("a b a^-1", AB) ** -1000000).letters == (
        (0,) + (3,) * 1000000 + (1,)
    )
    for text in ("a b a^-1", "a b", "[a, b]", "a a b a^-1", "b a^-1 b^-1 a a b a",
                 "a b b^-1 a^-1", "a^-1 b a b^-1 a"):
        u = parse_word(text, AB)
        for k in range(-5, 6):
            repeated = Word(AB, (u if k >= 0 else invert(u)).letters * abs(k))
            assert u ** k == free_reduce(repeated), (text, k)


def test_parse_bad_character_column():
    # the column is the character's, not that of the whitespace before it
    with pytest.raises(WordSyntaxError, match=r"'!' \(line 1, col 5\)$"):
        parse_word("a   !", AB, 1)


@pytest.mark.parametrize(
    "text, letters",
    [
        ("a " * 20000 + "^2", 20001),
        ("a" * 100000, None),  # one unknown name
        ("a" + " " * 100000 + "^2", 2),
        (" " * 100000 + "^2", None),
        ("a" + " " * 100000, 1),
        ("(" + " " * 100000, None),
        ("a b^-1 " * 50000 + "[a, b]", 100004),
    ],
)
def test_parse_time_is_linear(text, letters):
    # no letter, name or whitespace is read more than a bounded number of times
    start = time.perf_counter()
    try:
        got = len(parse_word(text, AB, budget=10**6))
    except WordSyntaxError:
        got = None
    assert got == letters
    assert time.perf_counter() - start < 1.0


def test_parse_memory_is_small():
    # a long plain text is read by one split, so it costs one string and
    # one int a letter, and no token
    tracemalloc.start()
    try:
        assert len(parse_word("a b^-1 " * 50000, AB, budget=10**6)) == 100000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# A random word tree over a multi-character alphabet: letters, the empty
# word, powers (negative, zero, "-0" and leading-zero exponents),
# conjugations, commutators and bracketed sequences.  Its letters come from
# the tree: powers, conjugations and commutators are freely reduced, and a
# sequence is the concatenation of its items.
_TREE_NAMES = Alphabet(("a", "x_1", "x_10", "B2"))
_SPACE = ("", " ", "\t", "  \n")


def _exponent_text(k, minus_zero, zeros):
    sign = "-" if k < 0 or (k == 0 and minus_zero) else ""
    return sign + "0" * zeros + str(abs(k))


_exponents = st.builds(
    lambda k, minus_zero, zeros: (k, _exponent_text(k, minus_zero, zeros)),
    st.integers(-3, 3), st.booleans(), st.integers(0, 2),
)


def _extend(kids):
    return st.one_of(
        st.tuples(st.just("pow"), kids, _exponents),
        st.tuples(st.just("conj"), kids, kids),
        st.tuples(st.just("comm"), kids, kids),
        st.tuples(st.just("seq"), st.lists(kids, min_size=1, max_size=3)),
    )


_trees = st.recursive(
    st.integers(0, 4).map(lambda i: ("gen", i) if i < 4 else ("one",)),
    _extend,
    max_leaves=10,
)


def _reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return out


def _inverse(letters):
    return [x ^ 1 for x in reversed(letters)]


def _tree_letters(t):
    kind = t[0]
    if kind == "gen":
        return [2 * t[1]]
    if kind == "one":
        return []
    if kind == "pow":
        base, k = _tree_letters(t[1]), t[2][0]
        return _reduce((_inverse(base) if k < 0 else base) * abs(k))
    if kind == "conj":
        x, y = _tree_letters(t[1]), _tree_letters(t[2])
        return _reduce(_inverse(y) + x + y)
    if kind == "comm":
        u, v = _tree_letters(t[1]), _tree_letters(t[2])
        return _reduce(_inverse(u) + _inverse(v) + u + v)
    return [x for kid in t[1] for x in _tree_letters(kid)]


def _render_tree(t, draw):
    """Text of t as one item: an atom and its chain of "^" suffixes."""

    def space():
        return draw(st.sampled_from(_SPACE))

    def caret():
        return space() + "^" + space()

    def atom(u):  # a power or conjugation needs brackets to be one atom
        text = _render_tree(u, draw)
        return f"({space()}{text}{space()})" if u[0] in ("pow", "conj") else text

    def sequence(u):  # items are parted by whitespace, so names never merge
        if u[0] != "seq":
            return _render_tree(u, draw)
        gaps = [draw(st.sampled_from(_SPACE[1:])) for _ in u[1]]
        return "".join(_render_tree(kid, draw) + gap for kid, gap in zip(u[1], gaps))

    kind = t[0]
    if kind == "gen":
        return _TREE_NAMES.names[t[1]]
    if kind == "one":
        return "1"
    if kind == "pow":  # a^2 is one token, b^a^2 is (b^a)^2
        return _render_tree(t[1], draw) + caret() + t[2][1]
    if kind == "conj":
        return _render_tree(t[1], draw) + caret() + atom(t[2])
    if kind == "comm":
        return f"[{space()}{sequence(t[1])},{space()}{sequence(t[2])}]"
    return f"({space()}{sequence(t)})"


@given(_trees, st.data())
def test_parse_matches_construction(tree, data):
    text = _render_tree(tree, data.draw)
    assert list(parse_word(text, _TREE_NAMES).letters) == _tree_letters(tree), text


# Plain letters, NAME or NAME^-1, parted by ASCII and Unicode whitespace.
_PLAIN_SPACE = st.sampled_from(("\t", "\n", "\u00a0", "\u2003", "\x1c", " "))


@st.composite
def _plain_texts(draw):
    spellings = draw(st.lists(st.sampled_from(_TREE_NAMES.spellings), max_size=12))
    n = len(spellings)  # whitespace may be missing only at the ends
    gaps = [
        draw(st.text(_PLAIN_SPACE, min_size=0 if i in (0, n) else 1, max_size=3))
        for i in range(n + 1)
    ]
    return gaps[0] + "".join(x + gap for x, gap in zip(spellings, gaps[1:]))


def _outcome(text, line, budget):
    try:
        return parse_word(text, _TREE_NAMES, line, budget=budget).letters
    except BudgetExceededError as exc:
        return type(exc), str(exc)


@given(_plain_texts())
def test_plain_text_reads_as_the_grammar_does(text):
    # " 1" appends the empty word, so the grammar reads the text instead
    n = len(text.split())
    for budget in (-1, 0, 1, n - 1, n, 10_000):
        for line in (None, 3):
            if n:
                assert _outcome(text, line, budget) == _outcome(text + " 1", line, budget)
            else:  # the grammar reads no token, so no budget refuses it
                assert _outcome(text, line, budget) == ()


# A fixed pool of pieces: names, unknown names, the empty word, powers
# (zero, negative zero and too large to expand), conjugations,
# commutators, stray brackets, commas, carets and characters.
_PIECES = (
    "a", "b", "x_1", "a^-1", "b^-1", "z", "c", "ab", "x_2", "1",
    "a^0", "b^-0", "a^2", "b^-3", "x_1^5", "(a b)^-2", "(a b a^-1)^3",
    "(a b b^-1 a^-1)^7", "a^99999999999999999999999",
    "b^-99999999999999999999999", "(a b)^123456789012345678901234567890",
    "1^99999999999999999999999", "a^b", "b^(a b)", "(a^2)^(b a^-1)",
    "x_1^(a b)^2", "[a, b]", "[a b, b^-1 a]", "[a^2, (a b)^-1]", "[a, a]",
    "(", ")", "[", "]", ",", "^", "^2", "^-1", "^b", "^(", "^-0", "a^",
    "!", "#", "-", "-3", "01", "a^01", "a a^-1", "b^-1 b a",
)


def _parse_outcomes(n_texts):
    alphabet = Alphabet(("a", "b", "x_1"))
    rng = random.Random(20231)
    for _ in range(n_texts):
        k = rng.randint(1, 6)
        text = "".join(
            rng.choice(_PIECES) + rng.choice((" ", " ", "", "  ", "\t"))
            for _ in range(k)
        )
        for budget in (DEFAULT_BUDGET, 5, 20, 100):
            for line in (None, 3):
                try:
                    yield repr(parse_word(text, alphabet, line, budget=budget).letters)
                except Exception as exc:  # the class and message are pinned
                    yield f"{type(exc).__name__}: {exc}"


def test_parse_pinned():
    # letters or exception of 160,000 parses; re-pinned when the budget
    # became an int that defaults to DEFAULT_BUDGET, a power of the empty
    # word became the empty word and the bad-character column moved onto
    # the character, with every outcome compared against the old parser's
    digest = hashlib.sha256()
    for outcome in _parse_outcomes(20000):
        digest.update(outcome.encode() + b"\n")
    assert digest.hexdigest() == (
        "fe11329f72cb55003ef14b491d7575d20d70378f1d987bc4172bfd119c0fcdf2"
    )
