"""Group presentations as data: constructors, built-ins, and the file format.

Relations written as equalities u = v are stored as the single relator
u v^-1, freely reduced.  Generator order is fixed and semantically
significant: it is the marking used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .words import (
    Alphabet,
    Substitution,
    Word,
    WordSyntaxError,
    check_budget,
    commutator,
    concat,
    free_reduce,
    gen,
    invert,
    parse_word,
    render_word,
)


class AlphabetConflictError(ValueError):
    """A new generator name collides with the existing alphabet."""


class InvalidConjugatorError(ValueError):
    """A conjugator word uses letters it must not."""


@dataclass(frozen=True)
class SubgroupSpec:
    """A designated subgroup, given by explicit generator words.

    Generator lists may be empty when the handle is semantic (membership
    decided by a bespoke procedure).
    """

    name: str
    generators: tuple[Word, ...] = ()


@dataclass(frozen=True)
class Presentation:
    name: str
    alphabet: Alphabet
    relators: tuple[Word, ...]
    subgroups: tuple[SubgroupSpec, ...] = ()

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

    def subgroup(self, name: str) -> SubgroupSpec:
        for spec in self.subgroups:
            if spec.name == name:
                return spec
        raise KeyError(f"no subgroup named {name!r} in presentation {self.name}")


def make_presentation(
    name: str,
    alphabet: Alphabet,
    relators: Iterable[Word],
    subgroups: Iterable[SubgroupSpec] = (),
) -> Presentation:
    reduced = tuple(free_reduce(r) for r in relators)
    return Presentation(name, alphabet, reduced, tuple(subgroups))


def cyclic_rotations(w: Word) -> set[tuple]:
    """Letter tuples of all cyclic rotations of w."""
    letters = w.letters
    return {letters[k:] + letters[:k] for k in range(max(len(letters), 1))}


def relator_closure(relators: Iterable[Word]) -> set[tuple]:
    """All cyclic rotations of the relators and their inverses."""
    out: set[tuple] = set()
    for rel in relators:
        out |= cyclic_rotations(rel)
        out |= cyclic_rotations(invert(rel))
    return out


def same_relator_set(p: Presentation, q: Presentation) -> bool:
    """Equality of presentations up to cyclic rotation and inversion of
    relators (generators must match exactly)."""
    if p.alphabet != q.alphabet or len(p.relators) != len(q.relators):
        return False
    qrels = relator_closure(q.relators)
    return all(r.letters in qrels for r in p.relators)


def hnn_presentation(
    p: Presentation, h: SubgroupSpec, stable: str
) -> Presentation:
    """Extend p by a stable letter commuting with every generator of h.

    Adds one generator and one relator [stable, h_j] per subgroup generator;
    existing relators are untouched.
    """
    if stable in p.alphabet:
        raise AlphabetConflictError(
            f"stable letter {stable!r} already in alphabet {p.alphabet.names}"
        )
    extended = p.alphabet.extend(stable)

    def lift(w: Word) -> Word:
        # same letters, wider alphabet
        return Word(extended, w.letters)

    t = gen(extended, stable)
    relators = [lift(r) for r in p.relators]
    for hw in h.generators:
        if hw.alphabet != p.alphabet:
            raise ValueError("subgroup generator over wrong alphabet")
        relators.append(commutator(t, lift(hw)))
    return Presentation(f"{p.name}*{h.name}", extended, tuple(relators))


def conjugation_substitution(
    p_e: Presentation, g: Word, stable: str
) -> Substitution:
    """The endomorphism-shaped substitution fixing the base generators and
    sending the stable letter to g^-1 stable g."""
    if stable not in p_e.alphabet:
        raise ValueError(f"stable letter {stable!r} not in alphabet")
    stable_idx = p_e.alphabet.index(stable)
    g_lifted = Word(p_e.alphabet, g.letters) if g.alphabet != p_e.alphabet else g
    if any(idx == stable_idx for idx, _ in g_lifted.letters):
        raise InvalidConjugatorError(
            f"conjugator {render_word(g)!r} contains the stable letter"
        )
    images = []
    for i, name in enumerate(p_e.alphabet.names):
        if i == stable_idx:
            images.append(
                free_reduce(
                    concat(invert(g_lifted), gen(p_e.alphabet, stable), g_lifted)
                )
            )
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
    text: str, alphabet: Alphabet, line: int | None = None, *, budget: int | None = None
) -> Word:
    """A relator WORD, or WORD = WORD stored as u v^-1; freely reduced.
    With a budget, both sides together must fit it before free reduction,
    as the items of a sequence do in ``parse_word``."""
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
_H_RELS = ("[h, a]", "[h, b]", "[h, c]")


def builtin(name: str) -> Presentation:
    """Built-in presentations B, ZxB, G, E with generator order
    (a, b, c[, h][, s][, t])."""
    if name == "B":
        return make_presentation("B", ABC, _rels(ABC, *_B_RELS))
    if name == "ZxB":
        return make_presentation("ZxB", ABCH, _rels(ABCH, *_B_RELS, *_H_RELS))
    if name == "G":
        return make_presentation(
            "G",
            ABCHS,
            _rels(ABCHS, *_B_RELS, *_H_RELS, "(h^2)^s = h a"),
            subgroups=(
                SubgroupSpec("H2", (parse_word("h^2", ABCHS),)),
                SubgroupSpec("HA", (parse_word("h a", ABCHS),)),
            ),
        )
    if name == "E":
        return make_presentation(
            "E",
            ABCHST,
            _rels(
                ABCHST, *_B_RELS, *_H_RELS, "(h^2)^s = h a", "(h^2)^t = h^2"
            ),
        )
    raise KeyError(f"unknown built-in presentation {name!r}")


# ---------------------------------------------------------------------------
# File format (UTF-8, line-oriented):
#   group NAME
#   gens NAME+
#   rel WORD
#   rel WORD = WORD
#   subgroup NAME gen WORD[, WORD ...]
# Comments start with '#'.
# ---------------------------------------------------------------------------


def parse_presentation(text: str, *, budget: int | None = None) -> Presentation:
    """Parse the file format; with a budget, every word is parsed under it,
    as by ``parse_word``."""
    name: Optional[str] = None
    alphabet: Optional[Alphabet] = None
    relators: list[Word] = []
    subgroups: list[SubgroupSpec] = []
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
        elif keyword == "subgroup":
            if alphabet is None:
                raise WordSyntaxError("subgroup before gens", lineno)
            parts = rest.split(None, 1)
            if len(parts) != 2:
                raise WordSyntaxError("malformed subgroup line", lineno)
            sub_name, sub_rest = parts
            if not sub_rest.startswith("gen "):
                raise WordSyntaxError("subgroup needs 'gen'", lineno)
            gens = tuple(
                free_reduce(parse_word(g, alphabet, lineno, budget=budget))
                for g in sub_rest[4:].split(",")
            )
            subgroups.append(SubgroupSpec(sub_name, gens))
        else:
            raise WordSyntaxError(f"unknown keyword {keyword!r}", lineno)
    if alphabet is None:
        raise WordSyntaxError("no gens line")
    return Presentation(
        name or "anonymous", alphabet, tuple(relators), tuple(subgroups)
    )


def serialize_presentation(p: Presentation) -> str:
    lines = [f"group {p.name}", "gens " + " ".join(p.alphabet.names)]
    for rel in p.relators:
        lines.append(f"rel {render_word(rel)}")
    for spec in p.subgroups:
        gens_text = ", ".join(render_word(g) for g in spec.generators)
        lines.append(f"subgroup {spec.name} gen {gens_text}")
    return "\n".join(lines) + "\n"
