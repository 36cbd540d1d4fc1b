"""Britton reduction over abstract oracles and the tower of extensions.

The engine is generic: a base word-problem oracle plus the associated
isomorphism in each direction (``HnnOracle``'s ``left`` and ``right``
maps) yield a complete word-problem oracle for the extension.  The tower is

    <h> x B --(stable s, h^2 <-> ha)--> G --(stable t, identity on h^2)--> E.

``g_oracle`` builds the first step here.  The second is the general one:
the stable letter commutes with a subgroup, so both maps are the subgroup
handle's ``contains``.  ``marked.condense`` builds it for any handle, and
``marked.builtin_group`` builds E as condense(G, <h^2>).

Convention: a pinch t^-1 z t with z in the left associated subgroup is
replaced by z's image on the right, and t z t^-1 with z in the right
subgroup by its image on the left.  Since the associated isomorphisms here
are the obvious ones, the stable-letter orientation is immaterial for
triviality, but the engine fixes this convention for deterministic reduced
forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, TypeVar

from .baumslag import BaseElement, eval_base, member_H2, member_HA
from .presentations import ABCH
from .words import (
    DEFAULT_BUDGET,
    Alphabet,
    BudgetExceededError,
    Word,
    check_alphabet,
    conjugate,
    free_reduce,
    invert,
    render_word,
)

T = TypeVar("T")


class GroupOracle(Protocol):
    """A total triviality predicate on words over a fixed alphabet."""

    alphabet: Alphabet

    def is_trivial(self, w: Word) -> bool: ...


@dataclass(frozen=True)
class BaseOracle:
    """Word problem of B (alphabet ABC) or of <h> x B (alphabet ABCH) via
    the exact GF(2) module model."""

    alphabet: Alphabet

    def is_trivial(self, w: Word) -> bool:
        check_alphabet(w, self.alphabet)
        return eval_base(w).is_identity()


class HnnOracle:
    """Word-problem oracle for an extension by a commuting stable letter.

    ``left`` takes a word over the base alphabet and returns the canonical
    word of its image in the right subgroup, or None when the word is not
    in the left subgroup; ``right`` maps the right subgroup to the left one
    in the same way.
    """

    def __init__(
        self,
        base: GroupOracle,
        left: Callable[[Word], Optional[Word]],
        right: Callable[[Word], Optional[Word]],
        stable: str,
        *,
        budget: int = DEFAULT_BUDGET,
    ):
        self.base = base
        self.left = left
        self.right = right
        self.stable = stable
        self.alphabet = base.alphabet.extend(stable)
        self.budget = budget

    def _fold(self, w: Word) -> tuple[list[int], list[int]]:
        """Remove every pinch in one left-to-right pass over free_reduce(w).

        Returns the letters of the reduced form and the positions of its
        stable letters.  The list ``out`` holds a pinch-free prefix, and
        base letters are pushed onto it with free cancellation.  By
        Britton's lemma a stable letter can only pinch the part since the
        previous stable letter, so each part is tried once, when it
        closes: on a hit both stable letters and the part give way to the
        part's image.  Pinches are taken in the order of leftmost-first
        rewriting, which this pass therefore reproduces, reduced form
        included.
        """
        check_alphabet(w, self.alphabet)
        budget = self.budget
        if len(w) > budget:
            raise BudgetExceededError(
                f"input word has {len(w)} letters (budget {budget})"
            )
        base = self.base.alphabet
        stable = 2 * base.arity  # t; t^-1 is stable + 1
        left, right = self.left, self.right
        out: list[int] = []
        marks: list[int] = []
        for x in free_reduce(w).letters:
            if x < stable:
                if out and out[-1] == x ^ 1:
                    out.pop()
                else:
                    out.append(x)
                continue
            start = _close_part(out, marks, budget)
            if marks and out[start - 1] == x ^ 1:
                member = left if x == stable else right
                image = member(Word(base, tuple(out[start:])))
                if image is not None:
                    del out[start - 1:]
                    marks.pop()
                    for y in image.letters:
                        if out and out[-1] == y ^ 1:
                            out.pop()
                        else:
                            out.append(y)
                    continue
            marks.append(len(out))
            out.append(x)
        _close_part(out, marks, budget)
        return out, marks

    def reduce(self, w: Word) -> Word:
        """The reduced form of w: no pinch, every part freely reduced."""
        return Word(self.alphabet, tuple(self._fold(w)[0]))

    def _base_word(self, w: Word) -> Optional[Word]:
        """The reduced form of w over the base alphabet, or None if it keeps
        a stable letter: w then lies outside the base group."""
        out, marks = self._fold(w)
        return None if marks else Word(self.base.alphabet, tuple(out))

    def is_trivial(self, w: Word) -> bool:
        """Britton's lemma: w is trivial iff its reduced form has no stable
        letters and is trivial in the base group."""
        z = self._base_word(w)
        return z is not None and self.base.is_trivial(z)


def _close_part(out: list[int], marks: list[int], budget: int) -> int:
    """Where the part after the last stable letter starts; a part longer
    than the budget is refused."""
    start = marks[-1] + 1 if marks else 0
    if len(out) - start > budget:
        raise BudgetExceededError(
            f"base part grew to {len(out) - start} letters (budget {budget})"
        )
    return start


# ---------------------------------------------------------------------------
# The tower: G over <h> x B, then E over G.
# ---------------------------------------------------------------------------


def _h_power_letters(alphabet: Alphabet, k: int) -> tuple[int, ...]:
    return (2 * alphabet.index("h") ^ (k < 0),) * abs(k)


def _h_power(alphabet: Alphabet, k: int) -> Word:
    return Word(alphabet, _h_power_letters(alphabet, k))


def _ha_power(alphabet: Alphabet, k: int) -> Word:
    # (ha)^k = h^k a^(k mod 2): h central, a^2 = 1.
    a = (2 * alphabet.index("a"),) * (k % 2)
    return Word(alphabet, _h_power_letters(alphabet, k) + a)


def _h2_to_ha(w: Word) -> Optional[Word]:
    """h^{2k} on the left goes to (ha)^k on the right."""
    k = member_H2(eval_base(w))
    return None if k is None else _ha_power(ABCH, k)


def _ha_to_h2(w: Word) -> Optional[Word]:
    """(ha)^k on the right goes back to h^{2k} on the left."""
    k = member_HA(eval_base(w))
    return None if k is None else _h_power(ABCH, 2 * k)


def g_oracle(budget: int = DEFAULT_BUDGET) -> HnnOracle:
    """The word-problem oracle for G (alphabet a, b, c, h, s)."""
    return HnnOracle(BaseOracle(ABCH), _h2_to_ha, _ha_to_h2, "s", budget=budget)


def member_in_G(
    w: Word, test: Callable[[BaseElement], T], oracle: HnnOracle
) -> Optional[T]:
    """test(z) for the element z of <h> x B equal to w in G, or None.

    A reduced form retaining stable letters lies outside the base group,
    hence outside every subgroup of it; otherwise membership is decided
    in <h> x B.
    """
    z = oracle._base_word(w)
    return None if z is None else test(eval_base(z))


# ---------------------------------------------------------------------------
# Subgroup handles and the extensions they define.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup of the ambient group G over ``alphabet``: a point of Sub(G).

    ``contains`` returns a canonical word for the same element (equal
    members give equal words) or None for non-members.  An extension whose
    stable letter commutes with the subgroup takes ``contains`` as both of
    its maps: canonical words keep merged base parts short, where the
    member word itself would never shrink them.
    """

    label: str
    contains: Callable[[Word], Optional[Word]]
    alphabet: Alphabet

    def __call__(self, w: Word) -> bool:
        return self.contains(w) is not None


def h2_handle(oracle: HnnOracle) -> SubgroupHandle:
    """The handle for <h^2> in G, the base point of the orbit: every other
    point is a ``conjugate_handle`` of it.  Canonical words: h^{2k}."""
    alphabet = oracle.alphabet

    def h2(z: BaseElement) -> Optional[Word]:
        k = member_H2(z)
        return None if k is None else _h_power(alphabet, 2 * k)

    return SubgroupHandle("H2", lambda w: member_in_G(w, h2, oracle), alphabet)


def conjugate_handle(g: Word, inner: SubgroupHandle) -> SubgroupHandle:
    """The handle for g H g^-1: z is a member iff g^-1 z g is in H, and its
    canonical word is g rep g^-1 for the canonical word rep of g^-1 z g."""
    g_inv = invert(g)

    def contains(z: Word) -> Optional[Word]:
        rep = inner.contains(conjugate(z, g))
        return None if rep is None else conjugate(rep, g_inv)

    return SubgroupHandle(
        f"conj({render_word(g)}, {inner.label})", contains, inner.alphabet
    )
