import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from markedgroups.words import (
    Alphabet,
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
            st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))),
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
    letters = [(i, s) for i in range(n) for s in (1, -1)]
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


# -- grammar -----------------------------------------------------------------


def test_parse_sugar():
    assert render_word(w("a^2")) == "a a"
    assert render_word(w("a^-2")) == "a^-1 a^-1"
    assert render_word(w("[a, b]")) == "a^-1 b^-1 a b"
    assert render_word(w("(a^2)^b")) == "b^-1 a a b"
    assert w("1").letters == ()
    hs = parse_word("(h^2)^s", SHT)
    assert render_word(hs) == "s^-1 h h s"


def test_parse_conjugation_matches_convention():
    # x^y = y^-1 x y
    assert w("a^b") == conjugate(gen(AB, "a"), gen(AB, "b"))
    assert w("[a, b]") == commutator(gen(AB, "a"), gen(AB, "b"))


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
