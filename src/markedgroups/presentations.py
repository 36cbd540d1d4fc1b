"""Group presentations as data: constructors, built-ins, and the file format.

Relations written as equalities u = v are stored as the single relator
u v^-1, freely reduced.  Generator order is fixed and semantically
significant: it is the marking used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Optional

from .words import (
    DEFAULT_BUDGET,
    Alphabet,
    Substitution,
    Word,
    WordSyntaxError,
    _word,
    check_alphabet,
    check_budget,
    commutator,
    concat,
    conjugate,
    exponent_sums,
    free_reduce,
    gen,
    invert,
    parse_word,
    render_word,
    rotations,
)


class AlphabetConflictError(ValueError):
    """A new generator name collides with the existing alphabet."""


class InvalidConjugatorError(ValueError):
    """A conjugator word uses letters it must not."""


@dataclass(frozen=True)
class Presentation:
    name: str
    alphabet: Alphabet
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        seen: set[tuple] = set()
        for rel in self.relators:
            if rel.alphabet != self.alphabet:
                raise ValueError("relator over wrong alphabet")
            if not rel.is_reduced():
                raise ValueError(f"relator {render_word(rel)!r} not freely reduced")
            if not rel.letters:
                raise ValueError("empty relator")
            if rel.letters in seen:
                raise ValueError(f"duplicate relator {render_word(rel)!r}")
            seen.add(rel.letters)


def make_presentation(
    name: str, alphabet: Alphabet, relators: Iterable[Word]
) -> Presentation:
    reduced = tuple(free_reduce(r) for r in relators)
    return Presentation(name, alphabet, reduced)


def relator_class(w: Word) -> tuple[int, ...]:
    """The least letter tuple among the cyclic rotations of w and of w^-1:
    two words have the same class iff one is a rotation of the other or
    of its inverse."""
    return min(rotations(w.letters))


def same_relator_set(p: Presentation, q: Presentation) -> bool:
    """Equality of presentations relator for relator, up to cyclic
    rotation and inversion of each (generators must match exactly)."""
    p_classes, q_classes = (sorted(map(relator_class, x.relators)) for x in (p, q))
    return p.alphabet == q.alphabet and p_classes == q_classes


def zero_sum_coordinates(p: Presentation) -> tuple[int, ...]:
    """The generator indices whose exponent sum is 0 in every relator.

    The exponent sum of such a generator is a homomorphism from the group
    to Z, so every trivial word has sum 0 in each of them; scans of a
    marked group use them to skip the rest (``MarkedGroup.coordinates``).
    """
    nonzero: set[int] = set()
    for rel in p.relators:
        nonzero.update(i for i, total in enumerate(exponent_sums(rel)) if total)
    return tuple(i for i in range(p.alphabet.arity) if i not in nonzero)


def hnn_presentation(
    p: Presentation, name: str, generators: Iterable[Word], stable: str
) -> Presentation:
    """Extend p by a stable letter commuting with the subgroup generated by
    the given words: the finite presentation of the extension over a
    finitely generated subgroup.

    Adds one generator and one relator [stable, h_j] per subgroup generator
    h_j; existing relators are untouched.
    """
    if stable in p.alphabet:
        raise AlphabetConflictError(
            f"stable letter {stable!r} already in alphabet {p.alphabet.names}"
        )
    extended = p.alphabet.extend(stable)

    def lift(w: Word) -> Word:
        # same letters, wider alphabet
        return _word(extended, w.letters)

    t = gen(extended, stable)
    relators = [lift(r) for r in p.relators]
    for hw in generators:
        if hw.alphabet != p.alphabet:
            raise ValueError("subgroup generator over wrong alphabet")
        relators.append(commutator(t, lift(hw)))
    return Presentation(name, extended, tuple(relators))


def conjugation_substitution(
    p_e: Presentation, g: Word, stable: str
) -> Substitution:
    """The endomorphism-shaped substitution fixing the base generators and
    sending the stable letter to g^-1 stable g."""
    if stable not in p_e.alphabet:
        raise ValueError(f"stable letter {stable!r} not in alphabet")
    check_alphabet(g, p_e.alphabet)
    stable_idx = p_e.alphabet.index(stable)
    if any(x >> 1 == stable_idx for x in g.letters):
        raise InvalidConjugatorError(
            f"conjugator {render_word(g)!r} contains the stable letter"
        )
    images = []
    for i, name in enumerate(p_e.alphabet.names):
        if i == stable_idx:
            images.append(conjugate(gen(p_e.alphabet, stable), g))
        else:
            images.append(gen(p_e.alphabet, name))
    return Substitution(p_e.alphabet, p_e.alphabet, tuple(images))


# ---------------------------------------------------------------------------
# Built-in presentations.
# ---------------------------------------------------------------------------

ABC = Alphabet(("a", "b", "c"))
ABCH = Alphabet(("a", "b", "c", "h"))
ABCHS = Alphabet(("a", "b", "c", "h", "s"))
ABCHST = Alphabet(("a", "b", "c", "h", "s", "t"))


def parse_relator(
    text: str, alphabet: Alphabet, line: int | None = None, *,
    budget: int = DEFAULT_BUDGET,
) -> Word:
    """A relator WORD, or WORD = WORD stored as u v^-1; freely reduced.
    Both sides together must fit the budget before free reduction, as the
    items of a sequence do in ``parse_word``."""
    lhs, eq, rhs = text.partition("=")
    w = parse_word(lhs, alphabet, line, budget=budget)
    if eq:
        v = parse_word(rhs, alphabet, line, budget=budget)
        check_budget(len(w) + len(v), budget, line)
        w = concat(w, invert(v))
    return free_reduce(w)


def _rels(alphabet: Alphabet, *texts: str) -> tuple[Word, ...]:
    return tuple(parse_relator(text, alphabet) for text in texts)


_B_RELS = ("a^2", "[a, a^b]", "[b, c]", "a^c = a a^b")


@cache
def builtin(name: str) -> Presentation:
    """Built-in presentations B, ZxB, G, E with generator order
    (a, b, c[, h][, s][, t]).  ZxB = <h> x B and E = f(<h^2>) are the
    commuting extensions of ``hnn_presentation``.  Presentations are
    immutable, so each is parsed once per process: group specs, scans
    (for coordinates) and experiments ask for them again and again."""
    if name == "B":
        return make_presentation("B", ABC, _rels(ABC, *_B_RELS))
    if name == "ZxB":
        return hnn_presentation(
            builtin("B"), "ZxB", (gen(ABC, x) for x in ABC.names), "h"
        )
    if name == "G":
        return make_presentation(
            "G",
            ABCHS,
            _rels(ABCHS, *_B_RELS, "[h, a]", "[h, b]", "[h, c]", "(h^2)^s = h a"),
        )
    if name == "E":
        return hnn_presentation(
            builtin("G"), "E", (parse_word("h^2", ABCHS),), "t"
        )
    raise KeyError(f"unknown built-in presentation {name!r}")


# The generating involutions of the built-in groups, each a pair of letters
# swapped together with their inverses: a -> a^-1, b <-> c and, past B,
# h -> h^-1.  Each maps every relator to a trivial word, so it is an
# automorphism.  E's are G's and t -> t^-1, which ``marked.condense`` adds.
_SYMMETRIES = {
    "B": (("a", "a^-1"), ("b", "c")),
    "ZxB": (("a", "a^-1"), ("b", "c"), ("h", "h^-1")),
    "G": (("a", "a^-1"), ("b", "c"), ("h", "h^-1")),
}


@cache
def builtin_symmetries(name: str) -> tuple[tuple[int, ...], ...]:
    """The generating involutions of B, ZxB or G as letter permutations
    over its alphabet: the permutation maps letter x to letter sigma[x]."""
    if name not in _SYMMETRIES:
        raise KeyError(f"no built-in symmetries for {name!r}")
    letter_of = builtin(name).alphabet._letter_of
    symmetries = []
    for x, y in _SYMMETRIES[name]:
        p, q = letter_of[x], letter_of[y]
        sigma = list(range(len(letter_of)))
        sigma[p], sigma[q], sigma[p ^ 1], sigma[q ^ 1] = q, p, q ^ 1, p ^ 1
        symmetries.append(tuple(sigma))
    return tuple(symmetries)


# ---------------------------------------------------------------------------
# File format (UTF-8, line-oriented):
#   group NAME
#   gens NAME+
#   rel WORD
#   rel WORD = WORD
# Comments start with '#'.
# ---------------------------------------------------------------------------


def parse_presentation(text: str, *, budget: int = DEFAULT_BUDGET) -> Presentation:
    """Parse the file format; every word is parsed under the budget, as by
    ``parse_word``."""
    name: Optional[str] = None
    alphabet: Optional[Alphabet] = None
    relators: list[Word] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        keyword = fields[0]
        rest = fields[1] if len(fields) > 1 else ""
        if keyword == "group":
            if not rest:
                raise WordSyntaxError("missing group name", lineno)
            name = rest.strip()
        elif keyword == "gens":
            if alphabet is not None:
                raise WordSyntaxError("duplicate gens line", lineno)
            try:
                alphabet = Alphabet(tuple(rest.split()))
            except ValueError as exc:
                raise WordSyntaxError(str(exc), lineno) from None
        elif keyword == "rel":
            if alphabet is None:
                raise WordSyntaxError("rel before gens", lineno)
            relators.append(parse_relator(rest, alphabet, lineno, budget=budget))
        else:
            raise WordSyntaxError(f"unknown keyword {keyword!r}", lineno)
    if alphabet is None:
        raise WordSyntaxError("no gens line")
    return Presentation(name or "anonymous", alphabet, tuple(relators))


def serialize_presentation(p: Presentation) -> str:
    lines = [f"group {p.name}", "gens " + " ".join(p.alphabet.names)]
    for rel in p.relators:
        lines.append(f"rel {render_word(rel)}")
    return "\n".join(lines) + "\n"
