import random

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from markedgroups.baumslag import (
    B_A,
    B_IDENTITY,
    BASE_IDENTITY,
    BaseElement,
    BElement,
    ForeignLetterError,
    PF_ONE,
    PF_ZERO,
    PolyFrac,
    _coordinates,
    a_module,
    eval_base,
    h2_exponent,
    ha_exponent,
    monomial,
    polyfrac,
    span_membership,
)
from markedgroups.presentations import ABCH, ABCHST, builtin
from markedgroups.words import (
    DEFAULT_BUDGET,
    Alphabet,
    Word,
    concat,
    conjugate,
    free_reduce,
    invert_letters,
    parse_word,
)


def pw(text):
    return parse_word(text, ABCH)


# Reference group law of B and <h> x B, letter by letter: the fold that
# eval_base's closed form must agree with.


def pf_add(p, q):
    """Exact sum over one common denominator; addition is GF(2), so
    p + p = 0."""
    xpow, ypow = max(p.xpow, q.xpow), max(p.ypow, q.ypow)
    a = polyfrac(p.num, p.xpow - xpow, p.ypow - ypow).num
    b = polyfrac(q.num, q.xpow - xpow, q.ypow - ypow).num
    return polyfrac(a ^ b, xpow, ypow)


def unit_mul(p, k, l):
    """p x^k (1+x)^l, k and l any integers."""
    return polyfrac(p.num, p.xpow - k, p.ypow - l)


def b_mul(u, v):
    return BElement(pf_add(u.m, unit_mul(v.m, -u.i, -u.j)), u.i + v.i, u.j + v.j)


def b_inv(u):
    return BElement(unit_mul(u.m, u.i, u.j), -u.i, -u.j)


B_B = BElement(PF_ZERO, 1, 0)
B_C = BElement(PF_ZERO, 0, 1)


def base_mul(u, v):
    return BaseElement(u.n + v.n, b_mul(u.beta, v.beta))


def base_inv(u):
    return BaseElement(-u.n, b_inv(u.beta))


# Reference membership in <h^2> and <ha>, on elements: the letter
# predicates h2_exponent and ha_exponent must agree with it.


def member_H2(z):
    """k such that z = h^{2k}, if any."""
    if z.beta.is_identity() and z.n % 2 == 0:
        return z.n // 2
    return None


def member_HA(z):
    """k such that z = (ha)^k = h^k a^(k mod 2), if any."""
    expected = B_IDENTITY if z.n % 2 == 0 else B_A
    if z.beta == expected:
        return z.n
    return None


def member_A(z):
    """The module part of z if z lies in A, generated by h and the a^{b^i}:
    its b and c exponents vanish and its module part is Laurent in x."""
    if z.beta.i == 0 and z.beta.j == 0 and z.beta.m.is_laurent():
        return z.beta.m
    return None


# -- GF(2) fraction arithmetic ----------------------------------------------


def test_pf_add_examples():
    assert pf_add(PF_ONE, PF_ONE) == PF_ZERO  # characteristic 2
    assert pf_add(PF_ONE, PolyFrac(0b10)) == PolyFrac(0b11)
    assert unit_mul(PF_ONE, -1, -1) == PolyFrac(1, 1, 1)


def test_canonical_form_enforced():
    for fields in [(-1,), (1, -1), (1, 0, -1)]:
        with pytest.raises(ValueError):
            PolyFrac(*fields)
    with pytest.raises(ValueError):
        PolyFrac(0, 1, 0)
    with pytest.raises(ValueError):
        PolyFrac(0b10, 1, 0)  # numerator divisible by x
    with pytest.raises(ValueError):
        PolyFrac(0b11, 0, 1)  # numerator divisible by 1+x
    # (x + x^2) / (x (1+x)) = 1
    assert polyfrac(0b110, 1, 1) == PF_ONE
    # (1 + x^2) = (1+x)^2 over GF(2), so dividing by (1+x) leaves 1+x
    assert polyfrac(0b101, 0, 1) == PolyFrac(0b11)


def test_monomial():
    assert monomial(0) == PF_ONE
    assert monomial(3) == PolyFrac(0b1000)
    assert monomial(-2) == PolyFrac(1, 2, 0)


@st.composite
def polyfracs(draw):
    return polyfrac(
        draw(st.integers(0, 2**10 - 1)),
        draw(st.integers(0, 4)),
        draw(st.integers(0, 4)),
    )


@given(polyfracs(), polyfracs())
def test_pf_add_commutative_and_cancellation(p, q):
    assert pf_add(p, q) == pf_add(q, p)
    # canonical form unique: p + q = 0 iff identical fields
    assert (pf_add(p, q) == PF_ZERO) == (p == q)
    assert pf_add(p, p) == PF_ZERO


@given(polyfracs(), st.integers(-5, 5), st.integers(-5, 5))
def test_unit_mul_invertible(p, k, l):
    assert unit_mul(unit_mul(p, k, l), -k, -l) == p


# Bit-serial reference arithmetic over GF(2), independent of the Frobenius
# product and the parity cancellation in the module under test.


def ref_mul(a, b):
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def ref_pow_one_plus_x(m):
    result = 1
    for _ in range(m):
        result = ref_mul(result, 0b11)
    return result


def ref_divmod(a, b):
    quotient = 0
    while a.bit_length() >= b.bit_length():
        shift = a.bit_length() - b.bit_length()
        quotient |= 1 << shift
        a ^= b << shift
    return quotient, a


def test_reference_divmod():
    for a in range(64):
        for b in range(1, 16):
            q, r = ref_divmod(a, b)
            assert ref_mul(q, b) ^ r == a
            assert r.bit_length() < b.bit_length()


@given(st.integers(0, 2**40 - 1), st.integers(0, 70))
def test_one_plus_x_power_product_matches_reference(n, m):
    expected = ref_mul(n, ref_pow_one_plus_x(m))
    assert polyfrac(n, 0, -m).num == expected


@given(st.integers(0, 2**40 - 1), st.integers(0, 70))
def test_one_plus_x_cancellation_matches_reference(n, m):
    assert polyfrac(ref_mul(n, ref_pow_one_plus_x(m)), 0, m) == polyfrac(n)


@given(st.integers(0, 2**40 - 1))
def test_one_plus_x_parity_check_matches_reference(p):
    if ref_divmod(p, 0b11)[1] == 0:
        with pytest.raises(ValueError):
            PolyFrac(p, 0, 1)
    else:
        PolyFrac(p, 0, 1)


# -- B and the base group ----------------------------------------------------


def test_b_generator_relations():
    assert b_mul(B_A, B_A) == B_IDENTITY  # a^2 = 1
    a_b = b_mul(b_mul(b_inv(B_B), B_A), B_B)
    assert a_b == BElement(PolyFrac(0b10), 0, 0)  # a^b = x
    comm_bc = b_mul(
        b_mul(b_inv(B_C), b_inv(B_B)), b_mul(B_C, B_B)
    )
    assert comm_bc == B_IDENTITY  # [b, c] = 1 (order immaterial)
    a_c = b_mul(b_mul(b_inv(B_C), B_A), B_C)
    assert a_c == BElement(PolyFrac(0b11), 0, 0)  # a^c = 1 + x


@st.composite
def b_elements(draw):
    return BElement(
        draw(polyfracs()), draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    )


@given(b_elements(), b_elements(), b_elements())
def test_b_mul_associative(u, v, z):
    assert b_mul(b_mul(u, v), z) == b_mul(u, b_mul(v, z))


@given(b_elements())
def test_b_inverse(u):
    assert b_mul(u, b_inv(u)) == B_IDENTITY
    assert b_mul(b_inv(u), u) == B_IDENTITY


def test_eval_base_examples():
    assert eval_base(pw("h a h a")) == BaseElement(2, B_IDENTITY)
    assert eval_base(pw("1")) == BASE_IDENTITY
    assert eval_base(pw("a^c")) == BaseElement(0, BElement(PolyFrac(0b11)))
    foreign = r"^letter '{}' is not a generator of <h> x B$"
    with pytest.raises(ForeignLetterError, match=foreign.format("s")):
        eval_base(parse_word("s", builtin("G").alphabet))
    # letters are read by index, so the names must begin a, b, c[, h]
    with pytest.raises(
        ForeignLetterError,
        match=r"^alphabet \('b', 'a', 'c'\) does not begin a, b, c$",
    ):
        eval_base(parse_word("b", Alphabet(("b", "a", "c"))))
    with pytest.raises(ForeignLetterError, match=foreign.format("s")):
        eval_base(parse_word("a s", Alphabet(("a", "b", "c", "s"))))
    # the first foreign letter is named
    with pytest.raises(ForeignLetterError, match=foreign.format("t")):
        eval_base(parse_word("h a t s", ABCHST))


def test_relators_die_in_model():
    for rel in builtin("B").relators:
        assert eval_base(Word(builtin("B").alphabet, rel.letters)).is_identity()
    for rel in builtin("ZxB").relators:
        assert eval_base(rel).is_identity()


@st.composite
def abch_words(draw, max_len=20):
    letters = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from((1, -1))).map(
                lambda t: 2 * t[0] + (t[1] < 0)
            ),
            max_size=max_len,
        )
    )
    return Word(ABCH, tuple(letters))


@given(abch_words(), abch_words())
def test_eval_base_homomorphism(u, v):
    assert eval_base(concat(u, v)) == base_mul(eval_base(u), eval_base(v))


@given(abch_words())
def test_eval_base_inverse_and_reduction(u):
    assert eval_base(free_reduce(u)) == eval_base(u)
    assert base_mul(eval_base(u), base_inv(eval_base(u))) == BASE_IDENTITY


REF_GENS = {
    "a": BaseElement(0, B_A),
    "b": BaseElement(0, B_B),
    "c": BaseElement(0, B_C),
    "h": BaseElement(1, B_IDENTITY),
}


def ref_eval(w):
    """The word's value as a fold of the reference group law."""
    z = BASE_IDENTITY
    for x in w.letters:
        g = REF_GENS[w.alphabet.names[x >> 1]]
        z = base_mul(z, base_inv(g) if x & 1 else g)
    return z


@st.composite
def long_abch_words(draw):
    # chunks a^{+-1} g^k with g one of b, c, h, so that many distinct
    # (i, j) terms, negative exponents among them, meet in one sum
    chunks = draw(
        st.lists(
            st.tuples(
                st.booleans(), st.integers(1, 3), st.integers(-12, 12)
            ),
            min_size=20,
            max_size=60,
        )
    )
    letters = []
    for a_inverse, g, k in chunks:
        letters += [int(a_inverse)] + [2 * g + (k < 0)] * abs(k)
    return Word(ABCH, tuple(letters[:200]))


@given(long_abch_words())
def test_eval_base_matches_group_law_fold_on_long_words(w):
    assert eval_base(w) == ref_eval(w)


def test_eval_base_against_independent_model():
    # independent route: sympy polynomials modulo 2 with explicit fractions
    x = sympy.symbols("x")

    def frac_eval(word):
        # element = (h-exp, module fraction, b-exp, c-exp), module tracked
        # as a sympy rational function reduced mod 2 at the end
        n, m, i, j = 0, sympy.Integer(0), 0, 0
        for letter in word.letters:
            idx, sign = letter // 2, (-1) ** letter
            name = word.alphabet.names[idx]
            if name == "h":
                n += sign
            elif name == "a":
                m = m + x ** (-i) * (1 + x) ** (-j)
            elif name == "b":
                i += sign
            elif name == "c":
                j += sign
        return n, sympy.cancel(m), i, j

    def frac_matches(frac, pf):
        bits = sum(
            x**k for k in range(pf.num.bit_length()) if pf.num >> k & 1
        )
        pf_frac = bits / (x**pf.xpow * (1 + x) ** pf.ypow)
        num, den = sympy.fraction(sympy.cancel(frac * x**8 * (1 + x) ** 8))
        pf_num, pf_den = sympy.fraction(
            sympy.cancel(pf_frac * x**8 * (1 + x) ** 8)
        )
        assert den == 1 and pf_den == 1
        return sympy.Poly(num - pf_num, x, modulus=2).is_zero

    rng = random.Random(7)
    for _ in range(150):
        letters = tuple(
            2 * rng.randrange(4) + (rng.choice((1, -1)) < 0)
            for _ in range(rng.randrange(0, 14))
        )
        w = Word(ABCH, letters)
        n, m, i, j = frac_eval(w)
        z = eval_base(w)
        assert (z.n, z.beta.i, z.beta.j) == (n, i, j)
        assert frac_matches(m, z.beta.m)


def test_exponent_two_free_abelian_structure():
    # any finite product of distinct a^{b^i} is non-trivial, its square is
    for subset in [(0,), (1, -1), (0, 2, -3), (5,)]:
        z = BASE_IDENTITY
        for i in subset:
            conj = eval_base(pw(f"(a)^(b^{i})"))
            z = base_mul(z, conj)
        assert not z.is_identity()
        assert base_mul(z, z) == BASE_IDENTITY


# -- membership predicates ---------------------------------------------------


def test_member_H2_examples():
    assert member_H2(BaseElement(4, B_IDENTITY)) == 2
    assert member_H2(BaseElement(3, B_IDENTITY)) is None
    assert member_H2(BaseElement(2, B_A)) is None


def test_member_HA_examples():
    assert member_HA(BaseElement(3, B_A)) == 3
    assert member_HA(BaseElement(2, B_IDENTITY)) == 2
    assert member_HA(BaseElement(1, BElement(PolyFrac(0b10)))) is None


def test_members_agree_with_brute_force_powers():
    h2 = eval_base(pw("h^2"))
    ha = eval_base(pw("h a"))
    z_h2, z_ha = BASE_IDENTITY, BASE_IDENTITY
    for k in range(51):
        assert member_H2(z_h2) == k
        assert member_HA(z_ha) == k
        assert member_H2(base_inv(z_h2)) == -k
        assert member_HA(base_inv(z_ha)) == -k
        if k and member_H2(z_ha) is not None:
            assert k % 2 == 0  # (ha)^k in <h^2> only for even k
        z_h2 = base_mul(z_h2, h2)
        z_ha = base_mul(z_ha, ha)


# c^-1 a c = a a^b: its terms (0, -1), (-1, 0), (0, 0) are left, and only
# the normalized module part, (1+x) + x + 1, shows that they sum to 0.
ZERO_MODULE = "c^-1 a c b^-1 a^-1 b a^-1"


def predicate_cases():
    """Words of <h> x B, many of them in <h^2> or <ha>: the trivial words,
    which are the zero-module word and products of conjugated relators
    of B, and then powers of h^2 and of ha up to the budget, each alone,
    times a trivial word and times a stray letter."""
    rng = random.Random(11)
    relators = [Word(ABCH, r.letters) for r in builtin("B").relators]
    trivial = [pw(ZERO_MODULE)]
    for _ in range(60):
        factors = []
        for _ in range(rng.randrange(1, 4)):
            u = Word(ABCH, tuple(rng.randrange(8) for _ in range(rng.randrange(5))))
            factors.append(conjugate(rng.choice(relators) ** rng.choice((1, -1)), u))
        trivial.append(free_reduce(concat(*factors)))
    half = DEFAULT_BUDGET // 2
    ks = list(range(-12, 13)) + [half - 1, -half + 1, half, -half]
    words = []
    for k in ks:
        for power in (pw(f"h^{2 * k}"), pw(f"h^{k} a^{k % 2}")):
            words += [power, concat(rng.choice(trivial), power)]
            words += [concat(power, pw(rng.choice("abch")))]
    return trivial, words


def test_letter_predicates_match_reference_membership():
    trivial, powers = predicate_cases()
    # terms left that sum to 0: the module part must be normalized
    assert sum(bool(_coordinates(w.letters)[3]) for w in trivial) > 20
    found = {"h2": 0, "ha": 0}
    for w in trivial + powers:
        z = eval_base(w)
        assert h2_exponent(w.letters) == member_H2(z), w
        assert ha_exponent(w.letters) == member_HA(z), w
        found["h2"] += member_H2(z) is not None
        found["ha"] += member_HA(z) is not None
    assert min(found.values()) > 100
    # the extremes: h^{2k} and (ha)^k within the budget
    half = DEFAULT_BUDGET // 2
    assert h2_exponent(pw(f"h^{2 * half}").letters) == half
    assert ha_exponent(pw(f"h^{-DEFAULT_BUDGET + 1} a").letters) == -DEFAULT_BUDGET + 1
    for text, k in ((ZERO_MODULE + " h^2", 1), (ZERO_MODULE + " h a", None)):
        assert h2_exponent(pw(text).letters) == k
    assert ha_exponent(pw(ZERO_MODULE + " h a").letters) == 1


@given(abch_words(max_len=30))
def test_letter_predicates_match_reference_on_random_words(w):
    z = eval_base(w)
    assert h2_exponent(w.letters) == member_H2(z)
    assert ha_exponent(w.letters) == member_HA(z)


def test_member_A_examples():
    z = BaseElement(5, BElement(polyfrac(0b10100, 1, 0)))  # x + x^3 part
    assert member_A(z) == polyfrac(0b1010)
    assert member_A(BaseElement(0, B_B)) is None
    assert member_A(BaseElement(0, BElement(polyfrac(1, 0, 1)))) is None
    # the letter predicate: a^(b^k) adds x^k, a^(c^k) adds (1+x)^k
    assert a_module(pw("h^5 a^b a^(b^3)").letters) == polyfrac(0b1010)
    assert a_module(pw("h^-2").letters) == PF_ZERO
    assert a_module(pw("a^c").letters) == polyfrac(0b11)  # a^c = a a^b
    assert a_module(pw(ZERO_MODULE).letters) == PF_ZERO
    assert a_module(pw("b").letters) is None
    assert a_module(pw("a^(c^-1)").letters) is None  # (1+x)^-1


def a_module_cases():
    """Seeded words over a, b, c, h, heavy in a: products of conjugates
    a^u and a^2 by words u over b and c, with some h, some cancelling
    pairs, and in some words one stray b or c, so that their b or c
    exponent sum is not 0."""
    rng = random.Random(13)
    words = []
    for _ in range(800):
        letters = []
        for _ in range(rng.randrange(1, 5)):
            u = [rng.choice((2, 3, 4, 5)) for _ in range(rng.randrange(4))]
            letters += u + [rng.choice((0, 1))] * rng.randrange(1, 3)
            letters += invert_letters(u)
            if rng.random() < 0.3:
                letters.append(rng.choice((6, 7)))
            if rng.random() < 0.2:
                x = rng.randrange(8)
                letters += [x, x ^ 1]
        if rng.random() < 0.3:
            letters.insert(rng.randrange(len(letters) + 1), rng.choice((2, 3, 4, 5)))
        words.append(Word(ABCH, tuple(letters)))
    return words


def test_a_module_matches_reference_membership():
    # eval_base, with its checks and its BaseElement, is the reference
    found = {"laurent": 0, "zero": 0, "fraction": 0, "unbalanced": 0}
    for w in a_module_cases():
        z = eval_base(w)
        assert a_module(w.letters) == member_A(z), w
        if z.beta.i or z.beta.j:
            found["unbalanced"] += 1
        elif not z.beta.m.is_laurent():
            found["fraction"] += 1
        else:
            found["zero" if z.beta.m.is_zero() else "laurent"] += 1
    assert min(found.values()) > 100, found


def test_span_membership_examples():
    assert not span_membership([PF_ONE], monomial(1))
    assert span_membership([], PF_ZERO)
    assert not span_membership([], PF_ONE)
    assert span_membership(
        [PF_ONE, monomial(1)], polyfrac(0b11)
    )  # 1 + x in span{1, x}
    assert span_membership(
        [polyfrac(0b11), monomial(1)], PF_ONE
    )  # 1 = (1+x) + x
    with pytest.raises(ValueError):
        span_membership([polyfrac(1, 0, 1)], PF_ONE)


def test_span_membership_against_exhaustive():
    rng = random.Random(3)
    for _ in range(50):
        targets = [polyfrac(rng.randrange(1, 32), rng.randrange(3)) for _ in range(3)]
        candidate = polyfrac(rng.randrange(32), rng.randrange(3))
        # exhaustive oracle over all 2^3 GF(2) combinations
        combos = set()
        for mask in range(8):
            acc = PF_ZERO
            for bit in range(3):
                if mask >> bit & 1:
                    acc = pf_add(acc, targets[bit])
            combos.add(acc)
        assert span_membership(targets, candidate) == (candidate in combos)
