"""Exact model of the metabelian group B and of the base group <h> x B.

The module part lives in GF(2)[x^{+-1}, (1+x)^{-1}].  Elements are kept in
a canonical fraction form numerator / (x^xpow (1+x)^ypow) with the
numerator a plain GF(2) polynomial stored as an int bit-vector (bit k is
the coefficient of x^k).

The generators act as a -> (1, 0, 0), b -> (0, 1, 0), c -> (0, 0, 1);
with the convention x^y = y^-1 x y, conjugation by b multiplies the module
by x and conjugation by c by (1+x), so a^b = x and a^c = 1+x and the
defining relation a^c = a a^b holds on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .words import Word

def _times_one_plus_x_power(num: int, k: int) -> int:
    """num (1+x)^k for k >= 0: over GF(2), (1+x)^(2^j) = 1 + x^(2^j)."""
    shift = 1
    while k:
        if k & 1:
            num ^= num << shift
        k >>= 1
        shift <<= 1
    return num


@dataclass(frozen=True)
class PolyFrac:
    """Canonical element of GF(2)[x^{+-1}, (1+x)^{-1}].

    Value = num / (x^xpow (1+x)^ypow).  Canonical form: num = 0 forces
    xpow = ypow = 0; xpow > 0 forces a non-zero constant term; ypow > 0
    forces num not divisible by 1+x, that is an odd number of terms
    (1+x divides num iff num vanishes at x = 1).
    """

    num: int
    xpow: int = 0
    ypow: int = 0

    def __post_init__(self) -> None:
        if self.num < 0 or self.xpow < 0 or self.ypow < 0:
            raise ValueError("PolyFrac fields must be non-negative")
        if self.num == 0:
            if self.xpow or self.ypow:
                raise ValueError("zero must have trivial denominator")
        else:
            if self.xpow > 0 and not (self.num & 1):
                raise ValueError("numerator divisible by x with xpow > 0")
            if self.ypow > 0 and self.num.bit_count() % 2 == 0:
                raise ValueError("numerator divisible by 1+x with ypow > 0")

    def is_zero(self) -> bool:
        return self.num == 0

    def is_laurent(self) -> bool:
        """True iff the value lies in GF(2)[x^{+-1}] (no 1+x denominator)."""
        return self.ypow == 0


PF_ZERO = PolyFrac(0)
PF_ONE = PolyFrac(1)


def polyfrac(num: int, xpow: int = 0, ypow: int = 0) -> PolyFrac:
    """The canonical PolyFrac of num / (x^xpow (1+x)^ypow), xpow and ypow
    any integers: a negative power is multiplied into the numerator, and
    common factors of x and 1+x are cancelled."""
    if num == 0:
        return PF_ZERO
    if xpow < 0:
        num <<= -xpow
        xpow = 0
    if ypow < 0:
        num = _times_one_plus_x_power(num, -ypow)
        ypow = 0
    shift = min(xpow, (num & -num).bit_length() - 1)
    num >>= shift
    xpow -= shift
    while ypow > 0 and num.bit_count() % 2 == 0:
        # num = q (1+x) = q ^ (q << 1), so q is the prefix xor of num's
        # bits below its leading one.
        degree = num.bit_length() - 1
        step = 1
        while step < degree:
            num ^= num << step
            step <<= 1
        num &= (1 << degree) - 1
        ypow -= 1
    return PolyFrac(num, xpow, ypow)


def monomial(i: int) -> PolyFrac:
    """x^i for any integer i."""
    return polyfrac(1, -i)


# ---------------------------------------------------------------------------
# Elements of B and of <h> x B.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BElement:
    """Normal form (module part, b-exponent, c-exponent) of an element of B."""

    m: PolyFrac = PF_ZERO
    i: int = 0
    j: int = 0

    def is_identity(self) -> bool:
        return self.m.is_zero() and self.i == 0 and self.j == 0


B_IDENTITY = BElement()
B_A = BElement(PF_ONE, 0, 0)


@dataclass(frozen=True)
class BaseElement:
    """Element of the direct product <h> x B: h-exponent and B part."""

    n: int = 0
    beta: BElement = B_IDENTITY

    def is_identity(self) -> bool:
        return self.n == 0 and self.beta.is_identity()


BASE_IDENTITY = BaseElement()


class ForeignLetterError(ValueError):
    """A word uses a generator outside the model's alphabet."""


_NAMES = ("a", "b", "c", "h")


def eval_base(w: Word) -> BaseElement:
    """Homomorphic evaluation of a word over {a, b, c, h} in <h> x B.

    Letters are read by index, so the alphabet must begin a, b, c[, h],
    and a word with any other letter is refused.
    """
    names = w.alphabet.names
    if names[:3] != _NAMES[:3]:
        raise ForeignLetterError(f"alphabet {names} does not begin a, b, c")
    end = 8 if names[:4] == _NAMES else 6  # the letters of a, b, c[, h]
    if 2 * len(names) > end:
        for x in w.letters:
            if x >= end:
                raise ForeignLetterError(
                    f"letter {names[x >> 1]!r} is not a generator of <h> x B"
                )
    n, i, j, terms = _coordinates(w.letters)
    return BaseElement(n, BElement(_module(terms), i, j))


def _coordinates(
    letters: Sequence[int],
) -> tuple[int, int, int, set[tuple[int, int]]]:
    """The exponent sums n of h, i of b and j of c, and the terms of the
    module part, of letters over a, b, c, h, read by index and unchecked.

    An a^{+-1} read after a prefix with b- and c-exponent sums i and j
    adds x^-i (1+x)^-j to the module part, since
    b^i c^j a = (b^i c^j a c^-j b^-i) b^i c^j.  Equal terms cancel over
    GF(2), so the terms are the (i, j) met an odd number of times.  Their
    sum may still be 0: see ``_module``.
    """
    n = i = j = 0
    terms: set[tuple[int, int]] = set()
    for x in letters:
        if x < 2:  # a is an involution: a term met twice cancels
            term = (i, j)
            if term in terms:
                terms.remove(term)
            else:
                terms.add(term)
        elif x < 4:
            i += 1 - 2 * (x & 1)
        elif x < 6:
            j += 1 - 2 * (x & 1)
        else:
            n += 1 - 2 * (x & 1)
    return n, i, j, terms


def _module(terms: set[tuple[int, int]]) -> PolyFrac:
    """The canonical sum of x^-i (1+x)^-j over the terms (i, j).

    A non-empty set can sum to 0: c^-1 a c b^-1 a^-1 b a^-1 leaves
    (0, -1), (-1, 0) and (0, 0), whose sum (1+x) + x + 1 is 0.  So only
    ``polyfrac`` decides whether the module part vanishes.
    """
    if not terms:
        return PF_ZERO
    # One common denominator x^X (1+x)^Y for every term, so polyfrac
    # normalizes once per word.
    xpow = max(ti for ti, _ in terms)
    ypow = max(tj for _, tj in terms)
    num = 0
    for ti, tj in terms:
        num ^= _times_one_plus_x_power(1 << (xpow - ti), ypow - tj)
    return polyfrac(num, xpow, ypow)


# ---------------------------------------------------------------------------
# Membership predicates.
# ---------------------------------------------------------------------------


def h2_exponent(letters: Sequence[int]) -> Optional[int]:
    """k such that letters over a, b, c, h, read by index and unchecked,
    are h^{2k} in <h> x B, if any.  The module part is built only when
    terms are left and the other coordinates fit."""
    n, i, j, terms = _coordinates(letters)
    if i or j or n & 1 or not _module(terms).is_zero():
        return None
    return n // 2


def ha_exponent(letters: Sequence[int]) -> Optional[int]:
    """k such that letters over a, b, c, h, read by index and unchecked,
    are (ha)^k in <h> x B, if any.

    (ha)^k = h^k a^(k mod 2) since h is central and a^2 = 1.
    """
    n, i, j, terms = _coordinates(letters)
    if i or j or _module(terms) != (PF_ONE if n & 1 else PF_ZERO):
        return None
    return n


def a_module(letters: Sequence[int]) -> Optional[PolyFrac]:
    """The module part of letters over a, b, c, h, read by index and
    unchecked, if they lie in A, the subgroup generated by h and the
    a^{b^i}; otherwise None.

    They do iff the b and c exponent sums vanish and the module part is
    a Laurent polynomial in x.
    """
    _, i, j, terms = _coordinates(letters)
    if i or j:
        return None
    m = _module(terms)
    return m if m.is_laurent() else None


def span_membership(targets: list[PolyFrac], candidate: PolyFrac) -> bool:
    """GF(2)-linear membership of candidate in the span of targets.

    All arguments must be Laurent polynomials in x (ypow = 0); membership
    is decided by Gaussian elimination over the finite monomial support.
    """
    for p in targets + [candidate]:
        if not p.is_laurent():
            raise ValueError("span_membership expects Laurent polynomials")
    if candidate.is_zero():
        return True
    shift = max([p.xpow for p in targets + [candidate]], default=0)
    rows = [p.num << (shift - p.xpow) for p in targets if not p.is_zero()]
    target_bits = candidate.num << (shift - candidate.xpow)
    # Row echelon over GF(2): reduce each row by the pivots found so far.
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    while target_bits:
        lead = target_bits.bit_length() - 1
        if lead not in pivots:
            return False
        target_bits ^= pivots[lead]
    return True
