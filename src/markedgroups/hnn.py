"""Britton reduction over abstract oracles and the tower of extensions.

The engine is generic: a base word-problem oracle plus an associated pair
(one map per associated subgroup, sending a member to the canonical word
of its image under the associated isomorphism) yield a complete
word-problem oracle for the extension.  It is instantiated twice, for

    <h> x B --(stable s, h^2 <-> ha)--> G --(stable t, identity on h^2)--> E.

The second step is the general one: ``pair_from_handle`` turns a subgroup
handle into the pair of the extension whose stable letter commutes with the
subgroup, and ``marked.condense`` uses the same pair for any handle.

Convention: a pinch t^-1 z t with z in the left associated subgroup is
replaced by z's image on the right, and t z t^-1 with z in the right
subgroup by its image on the left.  Since the associated isomorphisms here
are the obvious ones, the stable-letter orientation is immaterial for
triviality, but the engine fixes this convention for deterministic reduced
forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Protocol, TypeVar

from .baumslag import (
    BaseElement,
    eval_b,
    eval_base,
    member_A,
    member_H2,
    member_HA,
)
from .presentations import ABC, ABCH
from .words import (
    Alphabet,
    BudgetExceededError,
    Word,
    check_alphabet,
    concat,
    free_reduce,
    gen,
    invert,
    render_word,
)

DEFAULT_BUDGET = 10_000
T = TypeVar("T")


class GroupOracle(Protocol):
    """A total triviality predicate on words over a fixed alphabet."""

    alphabet: Alphabet

    def is_trivial(self, w: Word) -> bool: ...


@dataclass(frozen=True)
class BOracle:
    """Word problem of B via the exact GF(2) module model."""

    alphabet: Alphabet = ABC

    def is_trivial(self, w: Word) -> bool:
        check_alphabet(w, self.alphabet)
        return eval_b(w).is_identity()


@dataclass(frozen=True)
class ZxBOracle:
    """Word problem of the direct product <h> x B."""

    alphabet: Alphabet = ABCH

    def is_trivial(self, w: Word) -> bool:
        check_alphabet(w, self.alphabet)
        return eval_base(w).is_identity()


@dataclass(frozen=True)
class AssociatedPair:
    """The associated isomorphism, one map per side.

    ``member_left`` takes a word over the base alphabet and returns the
    canonical word of its image in the right subgroup, or None when the
    word is not in the left subgroup; ``member_right`` maps the right
    subgroup to the left one in the same way.
    """

    member_left: Callable[[Word], Optional[Word]]
    member_right: Callable[[Word], Optional[Word]]


@dataclass(frozen=True)
class BrittonWord:
    """Alternating form g0 t^e1 g1 ... t^ek gk with stable-free parts g_i."""

    head: Word
    tail: tuple[tuple[int, Word], ...] = ()

    @property
    def stable_count(self) -> int:
        return len(self.tail)


def split(w: Word, base_alphabet: Alphabet) -> BrittonWord:
    """Parse a word over base_alphabet extended by one stable letter (the
    last letter) into alternating form; base letters keep their indices.

    The parts are subwords of w, so they are freely reduced when w is.
    """
    stable = 2 * base_alphabet.arity  # t; t^-1 is stable + 1
    head_letters: list = []
    tail: list[tuple[int, list]] = []
    current: list = head_letters
    for x in w.letters:
        if x >= stable:
            current = []
            tail.append((-1 if x & 1 else 1, current))
        else:
            current.append(x)
    return BrittonWord(
        Word(base_alphabet, tuple(head_letters)),
        tuple((eps, Word(base_alphabet, tuple(letters))) for eps, letters in tail),
    )


def britton_reduce(
    bw: BrittonWord, pair: AssociatedPair, *, budget: int = DEFAULT_BUDGET
) -> BrittonWord:
    """Remove every pinch in one left-to-right pass.

    The stack holds a pinch-free prefix.  By Britton's lemma, appending
    t^e g to it can only create a pinch around the top part, so each
    stable letter is tried against that part once: on a hit the part's
    image is merged with its neighbours and the stack pops.  Pinches are
    taken in the order of leftmost-first rewriting, which this pass
    therefore reproduces, reduced form included.
    """
    eps: list[int] = []
    parts = [bw.head]
    for e, g in bw.tail:
        if eps and eps[-1] == -e:
            image = (pair.member_left if e > 0 else pair.member_right)(parts[-1])
            if image is not None:
                merged = free_reduce(concat(parts[-2], image, g))
                if len(merged) > budget:
                    raise BudgetExceededError(
                        f"base part grew to {len(merged)} letters (budget {budget})"
                    )
                del eps[-1], parts[-1]
                parts[-1] = merged
                continue
        eps.append(e)
        parts.append(g)
    return BrittonWord(parts[0], tuple(zip(eps, parts[1:])))


class HnnOracle:
    """Word-problem oracle for an extension by a commuting stable letter."""

    def __init__(
        self,
        base: GroupOracle,
        pair: AssociatedPair,
        stable: str,
        *,
        budget: int = DEFAULT_BUDGET,
    ):
        self.base = base
        self.pair = pair
        self.stable = stable
        self.alphabet = base.alphabet.extend(stable)
        self.budget = budget

    def reduce(self, w: Word) -> BrittonWord:
        check_alphabet(w, self.alphabet)
        if len(w) > self.budget:
            raise BudgetExceededError(
                f"input word has {len(w)} letters (budget {self.budget})"
            )
        bw = split(free_reduce(w), self.base.alphabet)
        return britton_reduce(bw, self.pair, budget=self.budget)

    def is_trivial(self, w: Word, *, strategy: str = "leftmost") -> bool:
        """Britton's lemma: w is trivial iff its reduced form has no stable
        letters and a trivial head.  Strategy "rightmost" reduces w^-1
        instead, meeting w's pinches from the right end, to check that the
        verdict does not depend on the order."""
        if strategy == "rightmost":
            w = invert(w)
        elif strategy != "leftmost":
            raise ValueError(f"unknown strategy {strategy!r}")
        bw = self.reduce(w)
        return bw.stable_count == 0 and self.base.is_trivial(bw.head)


# ---------------------------------------------------------------------------
# The tower: G over <h> x B, then E over G.
# ---------------------------------------------------------------------------


def _h_power(alphabet: Alphabet, k: int) -> Word:
    return gen(alphabet, "h") ** k


def _ha_power(alphabet: Alphabet, k: int) -> Word:
    # (ha)^k = h^k a^(k mod 2): h central, a^2 = 1.
    return _h_power(alphabet, k) * gen(alphabet, "a") ** (k % 2)


def g_pair() -> AssociatedPair:
    """h^{2k} on the left, (ha)^k on the right, matched exponentwise."""

    def left(w: Word) -> Optional[Word]:
        k = member_H2(eval_base(w))
        return None if k is None else _ha_power(ABCH, k)

    def right(w: Word) -> Optional[Word]:
        k = member_HA(eval_base(w))
        return None if k is None else _h_power(ABCH, 2 * k)

    return AssociatedPair(left, right)


@lru_cache(maxsize=None)
def g_oracle(budget: int = DEFAULT_BUDGET) -> HnnOracle:
    """The word-problem oracle for G (alphabet a, b, c, h, s)."""
    return HnnOracle(ZxBOracle(), g_pair(), "s", budget=budget)


def member_in_G(
    w: Word, test: Callable[[BaseElement], T], oracle: Optional[HnnOracle] = None
) -> Optional[T]:
    """test(z) for the element z of <h> x B equal to w in G, or None.

    A reduced form retaining stable letters lies outside the base group,
    hence outside every subgroup of it; otherwise membership is decided
    in <h> x B.
    """
    bw = (oracle or g_oracle()).reduce(w)
    if bw.stable_count:
        return None
    return test(eval_base(bw.head))


# ---------------------------------------------------------------------------
# Subgroup handles and the extensions they define.
# ---------------------------------------------------------------------------


class UndecidableSpecError(ValueError):
    """Membership for an arbitrary generator list is not provided."""


@dataclass(frozen=True)
class SubgroupHandle:
    """Membership in a subgroup of the ambient group.

    ``contains`` returns a canonical word for the same element (equal
    members give equal words) or None for non-members.
    """

    label: str
    contains: Callable[[Word], Optional[Word]]

    def __call__(self, w: Word) -> bool:
        return self.contains(w) is not None


def _a_word(alphabet: Alphabet, z: BaseElement) -> Word:
    """h^n a^(b^e1) ... a^(b^ek) for z = h^n (x^e1 + ... + x^ek) in A."""
    a, b, m = gen(alphabet, "a"), gen(alphabet, "b"), z.beta.m
    parts = [_h_power(alphabet, z.n)]
    for e in range(m.num.bit_length()):
        if m.num >> e & 1:
            parts += [b ** (m.xpow - e), a, b ** (e - m.xpow)]
    return free_reduce(concat(*parts))


def handle_for(name: str, oracle: Optional[HnnOracle] = None) -> SubgroupHandle:
    """The handle for H2 = <h^2>, HA = <ha> or A = <h, a^(b^i)> in G.

    Canonical words: h^{2k} for H2, (ha)^k for HA, and for A the word of
    ``_a_word``.
    """
    oracle = oracle or g_oracle()
    alphabet = oracle.alphabet

    def h2(z: BaseElement) -> Optional[Word]:
        k = member_H2(z)
        return None if k is None else _h_power(alphabet, 2 * k)

    def ha(z: BaseElement) -> Optional[Word]:
        k = member_HA(z)
        return None if k is None else _ha_power(alphabet, k)

    def sub_a(z: BaseElement) -> Optional[Word]:
        return _a_word(alphabet, z) if member_A(z) else None

    tests = {"H2": h2, "HA": ha, "A": sub_a}
    if name not in tests:
        raise UndecidableSpecError(
            f"no membership procedure for subgroup {name!r}; only H2, HA, A and "
            "their conjugates are decidable here"
        )
    test = tests[name]
    return SubgroupHandle(name, lambda w: member_in_G(w, test, oracle))


def conjugate_handle(g: Word, inner: SubgroupHandle) -> SubgroupHandle:
    """The handle for g H g^-1: z is a member iff g^-1 z g is in H, and its
    canonical word is g rep g^-1 for the canonical word rep of g^-1 z g."""
    g_inv = invert(g)

    def contains(z: Word) -> Optional[Word]:
        rep = inner.contains(free_reduce(concat(g_inv, z, g)))
        return None if rep is None else free_reduce(concat(g, rep, g_inv))

    return SubgroupHandle(f"conj({render_word(g)}, {inner.label})", contains)


def pair_from_handle(handle: SubgroupHandle) -> AssociatedPair:
    """Associated pair for an extension where the stable letter commutes
    with the subgroup: both sides are the subgroup and the isomorphism is
    the identity, so each side maps a member to its canonical word.

    Canonical words keep merged base parts short; returning the member
    word itself would never shrink them.
    """
    return AssociatedPair(handle.contains, handle.contains)


@lru_cache(maxsize=None)
def e_oracle(budget: int = DEFAULT_BUDGET) -> HnnOracle:
    """The word-problem oracle for E (alphabet a, b, c, h, s, t)."""
    g = g_oracle(budget)
    return HnnOracle(g, pair_from_handle(handle_for("H2", g)), "t", budget=budget)


def oracle_for(name: str, budget: int = DEFAULT_BUDGET) -> GroupOracle:
    if name == "B":
        return BOracle()
    if name == "ZxB":
        return ZxBOracle()
    if name == "G":
        return g_oracle(budget)
    if name == "E":
        return e_oracle(budget)
    raise KeyError(f"no built-in oracle named {name!r}")
