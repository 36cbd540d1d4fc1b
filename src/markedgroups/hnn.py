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
subgroup by its image on the left.  The isomorphisms here are the obvious
ones, so orientation is immaterial for triviality; it fixes reduced forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .baumslag import h2_exponent, ha_exponent
from .presentations import ABC, ABCH, builtin_symmetries
from .words import (
    DEFAULT_BUDGET,
    Alphabet,
    BudgetExceededError,
    Word,
    _reduce_letters,
    _word,
    check_alphabet,
    free_reduce,
    invert_letters,
    render_word,
)

Letters = tuple[int, ...]  # freely reduced letters, passed between levels


class GroupOracle:
    """A total triviality predicate on words over a fixed alphabet.

    An oracle defines ``decide``, on the letters of a freely reduced word
    over its alphabet, unchecked: a fold hands its base the letters of a
    reduced form, and the walk and ``wp`` the letters they built.  The one
    entry for a ``Word`` is ``is_trivial``: it checks the alphabet,
    refuses a word past the budget if the oracle has one, reduces it once
    and decides its letters.
    """

    alphabet: Alphabet

    def decide(self, letters: Sequence[int]) -> bool:
        raise NotImplementedError

    def is_trivial(self, w: Word) -> bool:
        return self.decide(_reduced_input(w, self))


@dataclass(frozen=True)
class BaseOracle(GroupOracle):
    """Word problem of B (alphabet ABC) or of <h> x B (alphabet ABCH) via
    the exact GF(2) module model."""

    alphabet: Alphabet

    def __post_init__(self) -> None:
        if self.alphabet not in (ABC, ABCH):
            raise ValueError(f"no base group over {self.alphabet.names}")

    def decide(self, letters: Sequence[int]) -> bool:
        # the identity is h^{2k} with k = 0; the coordinates are read as
        # sums, so the letters need not be reduced
        return h2_exponent(letters) == 0


class HnnOracle(GroupOracle):
    """Word-problem oracle for an extension by a commuting stable letter.

    ``left`` maps freely reduced base letters, within the budget, to the
    letters of the canonical word of their image in the right subgroup,
    or to None off the left subgroup; ``right`` maps back.  Both send ()
    to (), so the fold cancels an empty part with no call.
    """

    def __init__(
        self,
        base: GroupOracle,
        left: Callable[[Letters], Optional[Letters]],
        right: Callable[[Letters], Optional[Letters]],
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
        self._stable_letter = 2 * base.alphabet.arity  # t; t^-1 is one more

    def _fold(self, letters: Sequence[int]) -> tuple[list[int], list[int]]:
        """Remove every pinch in one left-to-right pass over the letters.

        Returns the letters of the reduced form and the positions of its
        stable letters.  The list ``out`` holds a pinch-free prefix, and
        base letters are pushed onto it with free cancellation.  By
        Britton's lemma a stable letter can only pinch the part since the
        previous stable letter, so each part is tried once, when it
        closes: on a hit both stable letters and the part give way to the
        part's image.  An empty part, t^-1 1 t, is a hit whose image is
        empty, so the two stable letters cancel with no map called.
        Pinches are taken in the order of leftmost-first rewriting, which
        this pass therefore reproduces, reduced form included.

        The input is freely reduced, as letters that cancel across stable
        letters must go before any part is tried.  In
        t^-1 s^13 h^2 s^-13 t t^-1 s^13 h^-2 s^-13 t the whole word cancels,
        but a pinch test of its first part would grow h^16384 in G.  Its
        length is checked: a conjugate handle's g^-1 z g may pass the budget.
        """
        budget = self.budget
        _check_input(len(letters), budget)
        stable = self._stable_letter
        left, right = self.left, self.right
        out: list[int] = []
        marks: list[int] = []
        for x in letters:
            if x < stable:
                if out and out[-1] == x ^ 1:
                    out.pop()
                else:
                    out.append(x)
                continue
            start = marks[-1] + 1 if marks else 0
            if len(out) - start > budget:
                raise _part_too_long(len(out) - start, budget)
            if marks and out[start - 1] == x ^ 1:
                if start == len(out):
                    out.pop()
                    marks.pop()
                    continue
                member = left if x == stable else right
                image = member(tuple(out[start:]))
                if image is not None:
                    del out[start - 1:]
                    marks.pop()
                    for y in image:
                        if out and out[-1] == y ^ 1:
                            out.pop()
                        else:
                            out.append(y)
                    continue
            marks.append(len(out))
            out.append(x)
        start = marks[-1] + 1 if marks else 0
        if len(out) - start > budget:
            raise _part_too_long(len(out) - start, budget)
        return out, marks

    def reduce(self, w: Word) -> Word:
        """The reduced form of w: no pinch, every part freely reduced."""
        return _word(self.alphabet, tuple(self._fold(_reduced_input(w, self))[0]))

    def in_base(self, letters: Sequence[int]) -> Optional[list[int]]:
        """The letters of the reduced form, or None if it keeps a stable
        letter: by Britton's lemma its element lies outside the base."""
        out, marks = self._fold(letters)
        return None if marks else out

    def decide(self, letters: Sequence[int]) -> bool:
        """Britton's lemma: trivial iff the reduced form is trivial in the base."""
        out = self.in_base(letters)
        return out is not None and self.base.decide(out)


def _reduced_input(w: Word, checker: GroupOracle | SubgroupHandle) -> Letters:
    """The letters of a word from outside the engine: checked against the
    checker's alphabet and its budget, if set, then freely reduced."""
    check_alphabet(w, checker.alphabet)
    _check_input(len(w), getattr(checker, "budget", None))
    return free_reduce(w).letters


def _check_input(length: int, budget: Optional[int]) -> None:
    if budget is not None and length > budget:
        raise BudgetExceededError(f"input word has {length} letters (budget {budget})")


def _part_too_long(length: int, budget: int) -> BudgetExceededError:
    """The refusal of a part after a stable letter that grew past the
    budget; the fold checks each part as it closes, and the last one."""
    return BudgetExceededError(f"base part grew to {length} letters (budget {budget})")


# ---------------------------------------------------------------------------
# The tower: G over <h> x B, then E over G.
# ---------------------------------------------------------------------------


# The letters of a and h in ABCH and in every alphabet of the tower above it.
_A, _H = 2 * ABCH.index("a"), 2 * ABCH.index("h")


def _h_power(k: int) -> Letters:
    return (_H ^ (k < 0),) * abs(k)


def _ha_power(k: int) -> Letters:
    # (ha)^k = h^k a^(k mod 2): h central, a^2 = 1.
    return _h_power(k) + (_A,) * (k % 2)


def _h2_to_ha(letters: Letters) -> Optional[Letters]:
    k = h2_exponent(letters)
    return None if k is None else _ha_power(k)


def _ha_to_h2(letters: Letters) -> Optional[Letters]:
    k = ha_exponent(letters)
    return None if k is None else _h_power(2 * k)


def g_oracle(budget: int = DEFAULT_BUDGET) -> HnnOracle:
    """The word-problem oracle for G (alphabet a, b, c, h, s): its maps send
    h^{2k} on the left to (ha)^k on the right, and back."""
    return HnnOracle(BaseOracle(ABCH), _h2_to_ha, _ha_to_h2, "s", budget=budget)


# ---------------------------------------------------------------------------
# Subgroup handles and the extensions they define.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup of the ambient group G over ``alphabet``: a point of Sub(G).

    ``contains`` maps freely reduced letters to the letters of a canonical
    word for the same element (equal members give equal letters), or to
    None off the subgroup.  An extension whose stable letter commutes with
    the subgroup takes ``contains`` as both of its maps: canonical words
    keep merged base parts short, where the member word never would.
    A call on a word longer than ``budget``, if set, fails before reduction.
    ``symmetries`` are letter involutions, as in ``MarkedGroup``, that the
    handle declares map the subgroup onto itself wherever they are
    automorphisms of G; ``marked.condense`` keeps those of G's.
    """

    label: str
    contains: Callable[[Letters], Optional[Letters]]
    alphabet: Alphabet
    budget: Optional[int] = None
    symmetries: tuple[Letters, ...] = ()

    def __call__(self, w: Word) -> bool:
        return self.contains(_reduced_input(w, self)) is not None


def check_extends_zxb(oracle: HnnOracle, subgroup: str) -> None:
    """Refuse an oracle that does not extend <h> x B: its reduced forms
    are read by index as letters over a, b, c, h, so a letter above them,
    such as G's s in E's base parts, would be taken for h."""
    if oracle.base.alphabet != ABCH:
        names = oracle.base.alphabet.names
        raise ValueError(f"{subgroup} needs an extension of <h> x B, not of {names}")


def h2_handle(oracle: HnnOracle) -> SubgroupHandle:
    """The handle for <h^2> in G, the base point of the orbit: every other
    point is a ``conjugate_handle`` of it.  Canonical words: h^{2k}.  The
    oracle must extend <h> x B, whose letters its reduced forms are read as.
    G's involutions a -> a^-1, b <-> c and h -> h^-1 send h^2 to h^{+-2},
    so each maps <h^2> onto itself: the handle declares all three."""
    check_extends_zxb(oracle, "<h^2>")

    def contains(letters: Letters) -> Optional[Letters]:
        out = oracle.in_base(letters)
        k = None if out is None else h2_exponent(out)
        return None if k is None else _h_power(2 * k)

    return SubgroupHandle(
        "H2", contains, oracle.alphabet, oracle.budget, builtin_symmetries("G")
    )


def conjugate_handle(g: Word, inner: SubgroupHandle) -> SubgroupHandle:
    """The handle for g H g^-1: z is a member iff g^-1 z g is in H, and its
    canonical word is g rep g^-1 for the canonical word rep of g^-1 z g.
    It declares each symmetry of the inner handle that fixes every letter
    of g: such a sigma maps g H g^-1 to sigma(g) sigma(H) sigma(g)^-1,
    which is g H g^-1.  For g = (s b^i)^-1 these are a -> a^-1 and
    h -> h^-1, and b <-> c too when i = 0; b <-> c moves <h^2>^(s b^i)
    for i != 0."""
    check_alphabet(g, inner.alphabet)
    g_letters, g_inv = g.letters, invert_letters(g.letters)

    def contains(z: Letters) -> Optional[Letters]:
        rep = inner.contains(tuple(_reduce_letters(g_inv + z + g_letters)))
        return None if rep is None else tuple(_reduce_letters(g_letters + rep + g_inv))

    label = f"conj({render_word(g)}, {inner.label})"
    symmetries = tuple(
        sigma for sigma in inner.symmetries if all(sigma[x] == x for x in g_letters)
    )
    return SubgroupHandle(label, contains, inner.alphabet, symmetries=symmetries)
