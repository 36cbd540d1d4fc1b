"""The space of finitely generated marked groups and the Chabauty side.

Relation balls are the finite certificates of the topology: two markings
agree at radius r when exactly the same words of length <= r evaluate to
the identity.  Fingerprints are order-independent hashes of the sorted
canonical renderings, so repeated comparisons are O(1) after construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Optional, Sequence

from .baumslag import PolyFrac, member_A, monomial, span_membership
from .hnn import (
    DEFAULT_BUDGET,
    BaseOracle,
    GroupOracle,
    HnnOracle,
    SubgroupHandle,
    conjugate_handle,
    g_oracle,
    h2_handle,
    member_in_G,
)
from .presentations import ABC, ABCH, builtin, relator_class, zero_sum_coordinates
from .words import (
    Alphabet,
    Word,
    ball_size,
    check_alphabet,
    check_budget,
    conjugate,
    enumerate_ball,
    exponent_sum,
    gen,
    invert,
    invert_letters,
    render_canonical,
    rotations,
    sort_key,
    _walk,
)


@dataclass(frozen=True)
class CyclicOracle:
    """Word problem of Z (order None) or Z/order on one generator."""

    order: Optional[int] = None
    alphabet: Alphabet = Alphabet(("x",))

    def __post_init__(self) -> None:
        if self.alphabet.arity != 1:
            raise ValueError("cyclic oracle needs a one-letter alphabet")
        if self.order is not None and self.order < 1:
            raise ValueError("order must be positive")

    def is_trivial(self, w: Word) -> bool:
        check_alphabet(w, self.alphabet)
        exponent = exponent_sum(w)
        if self.order is None:
            return exponent == 0
        return exponent % self.order == 0


@dataclass(frozen=True)
class MarkedGroup:
    """A word-problem oracle together with its ordered generating tuple.

    The marking is the oracle's alphabet order.  That the marking
    generates is an assumption supplied by the constructor; it is not
    checkable from the oracle alone.  ``coordinates`` are generator
    indices whose exponent sums are homomorphisms to Z, as derived by
    ``zero_sum_coordinates``: every trivial word has sum 0 in each, so
    scans prune the rest.  The default () walks every word.
    """

    name: str
    oracle: GroupOracle
    coordinates: tuple[int, ...] = ()

    @property
    def marking(self) -> tuple[str, ...]:
        return self.oracle.alphabet.names

    @property
    def arity(self) -> int:
        return self.oracle.alphabet.arity


def marked_Z() -> MarkedGroup:
    return MarkedGroup("Z", CyclicOracle(None), (0,))


def marked_Zmod(n: int) -> MarkedGroup:
    return MarkedGroup(f"Z/{n}", CyclicOracle(n))


def builtin_group(name: str, budget: int = DEFAULT_BUDGET) -> MarkedGroup:
    """B, ZxB, G or E with the coordinates of its presentation; E is the
    paper's condense(G, <h^2>), whose stable letter t commutes with h^2."""
    if name == "E":
        g = builtin_group("G", budget)
        return replace(condense(g, h2_handle(g.oracle)), name="E")
    if name == "B":
        oracle = BaseOracle(ABC)
    elif name == "ZxB":
        oracle = BaseOracle(ABCH)
    elif name == "G":
        oracle = g_oracle(budget)
    else:
        raise KeyError(f"no built-in group named {name!r}")
    return MarkedGroup(name, oracle, zero_sum_coordinates(builtin(name)))


@dataclass(frozen=True)
class RelationBall:
    """The trivial words of length <= r, sorted, with a stable fingerprint."""

    radius: int
    words: tuple[Word, ...]
    fingerprint: str

    @property
    def count(self) -> int:
        return len(self.words)

    def export(self, group_name: str = "?") -> str:
        lines = [
            f"# group={group_name} radius={self.radius} "
            f"count={self.count} fingerprint={self.fingerprint}"
        ]
        lines.extend(render_canonical(w) for w in self.words)
        return "\n".join(lines) + "\n"


def _fingerprint(words: Sequence[Word]) -> str:
    payload = "\n".join(render_canonical(w) for w in words)
    return hashlib.sha256(payload.encode()).hexdigest()


def _trivial_sphere(m: MarkedGroup, length: int) -> list[Word]:
    """The trivial class representatives of the given length, in walk order.

    Triviality is invariant under ``rotations``, so one call decides a
    class; its representative is ``relator_class``, cyclically reduced.
    After first letter f the walk takes only letters x with x >= f and
    x ^ 1 >= f, since any other begins a smaller rotation, and only words
    with exponent sum 0 in each of m's coordinates, since no other word
    is trivial in m.
    """
    oracle = m.oracle
    n = 2 * oracle.alphabet.arity
    follow = [[x for x in range(n) if x >= f and x ^ 1 >= f] for f in range(n)]
    trivial: list[Word] = []
    for w in _walk(oracle.alphabet, range(length, length + 1), m.coordinates, follow):
        v = w.letters
        if v and (v[-1] == v[0] ^ 1 or relator_class(w) != v):
            continue  # not cyclically reduced, or not least in its class
        if oracle.is_trivial(w):
            trivial.append(w)
    return trivial


def relation_ball(m: MarkedGroup, r: int) -> RelationBall:
    """Exactly the trivial words of length <= r, sorted length-lex.

    Every freely reduced word is uniquely u c u^-1, reduced as written,
    with c cyclically reduced (Lyndon-Schupp, Ch. I), and is trivial iff
    c is.  So the ball is every such word with c in a trivial class of
    ``_trivial_sphere``, each made once.  The largest sphere is walked
    first, so a radius past the walk's cap is refused before any work.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    alphabet = m.oracle.alphabet
    classes = [w.letters for n in range(r, -1, -1) for w in _trivial_sphere(m, n)]
    conjugators = [
        (u.letters, invert_letters(u.letters))
        for u in enumerate_ball(alphabet, max(r - 1, 0) // 2)
    ]
    ball: list[tuple[int, ...]] = []
    for v in classes:
        if not v:
            ball.append(v)
            continue
        for c in rotations(v):
            size = ball_size(alphabet.arity, (r - len(c)) // 2)
            for u, u_inverse in conjugators[:size]:
                if not u or u[-1] not in (c[0] ^ 1, c[-1]):
                    ball.append(u + c + u_inverse)
    trivial = sorted((Word(alphabet, w) for w in ball), key=sort_key)
    return RelationBall(r, tuple(trivial), _fingerprint(trivial))


def cong_r(m1: MarkedGroup, m2: MarkedGroup, r: int) -> bool:
    """True iff the radius-r relation balls coincide."""
    return max_agreement(m1, m2, r).saturated


class Agreement(NamedTuple):
    """Result of max_agreement: saturated means 'at least radius'."""

    radius: int
    saturated: bool

    def __str__(self) -> str:
        return f">= {self.radius}" if self.saturated else str(self.radius)


def max_agreement(m1: MarkedGroup, m2: MarkedGroup, r_max: int) -> Agreement:
    """Largest r <= r_max at which the relation balls coincide.

    Compares the trivial class representatives of each sphere, radius by
    radius: the ball of radius r is the conjugation closure of those of
    length <= r.  Each marking's sphere is pruned by its own coordinates,
    which is exact: a word outside them is non-trivial in that marking.
    """
    if m1.arity != m2.arity:
        raise ValueError(f"arity mismatch: {m1.arity} vs {m2.arity}")
    if r_max < 0:
        raise ValueError("radius must be non-negative")
    for r in range(1, r_max + 1):
        trivial1 = {w.letters for w in _trivial_sphere(m1, r)}
        if trivial1 != {w.letters for w in _trivial_sphere(m2, r)}:
            return Agreement(r - 1, False)
    return Agreement(r_max, True)


# ---------------------------------------------------------------------------
# Points of Sub(G) and the condensation map.
# ---------------------------------------------------------------------------


def chabauty_agree(
    h: SubgroupHandle, k: SubgroupHandle, words: Iterable[Word]
) -> bool:
    """True iff the two subgroups meet the finite set of words identically."""
    if h.alphabet != k.alphabet:
        raise ValueError("Chabauty points must share the ambient group")
    return all(h(w) == k(w) for w in words)


def condense(m: MarkedGroup, point: SubgroupHandle) -> MarkedGroup:
    """The marked group on n+1 letters obtained by adjoining a stable
    letter commuting with the subgroup; marking = m's marking then t.
    The extension keeps the letter budget of m's oracle, if it has one,
    and m's coordinates plus t: every relator [t, z] has exponent sum 0
    in each letter."""
    if point.alphabet != m.oracle.alphabet:
        raise ValueError("Chabauty point not over this marked group")
    budget = getattr(m.oracle, "budget", DEFAULT_BUDGET)
    oracle = HnnOracle(m.oracle, point.contains, point.contains, "t", budget=budget)
    return MarkedGroup(
        f"E({m.name}, {point.label})", oracle, m.coordinates + (m.arity,)
    )


# ---------------------------------------------------------------------------
# The escape construction inside G.
# ---------------------------------------------------------------------------


def escape_index(finite_set: Iterable[Word], oracle: HnnOracle) -> int:
    """Smallest index i (0, 1, -1, 2, -2, ...) such that the monomial x^i
    escapes the GF(2)-span of the module parts of the set's intersection
    with the subgroup A.

    Such an i exists for every finite set because A is not finitely
    generated.
    """
    module_parts: list[PolyFrac] = []
    for w in finite_set:
        z = member_in_G(w, lambda z: z if member_A(z) else None, oracle)
        if z is not None and not z.beta.m.is_zero():
            module_parts.append(z.beta.m)
    i = 0
    while True:
        for candidate in ((i,) if i == 0 else (i, -i)):
            if not span_membership(module_parts, monomial(candidate)):
                return candidate
        i += 1


def escape_words(i: int, alphabet: Alphabet) -> tuple[Word, Word]:
    """s b^i and h a^(b^i), freely reduced, over an alphabet with a, b, h, s:
    in G the second is (h^2)^(s b^i), which generates <h^2>^(s b^i)."""
    a, b, h, s = (gen(alphabet, name) for name in "abhs")
    return s * b ** i, h * conjugate(a, b ** i)


def orbit_witness(i: int, oracle: HnnOracle) -> tuple[Word, SubgroupHandle]:
    """The conjugator g = (s b^i)^-1 and the handle for g H g^-1.

    The conjugate subgroup is generated by h a^{b^i}; its square is h^2,
    so it differs from <h^2> exactly by the coset of the witness.  Raises
    BudgetExceededError before building s b^i when it has more letters
    than the oracle's budget.
    """
    check_budget(abs(i) + 1, oracle.budget)
    g = invert(escape_words(i, oracle.alphabet)[0])
    handle = conjugate_handle(g, h2_handle(oracle))
    return g, replace(handle, label=f"conj(sb^{i}, H2)")


class OrbitAgreement(NamedTuple):
    """<h^2> against its conjugate gHg^-1 = orbit_witness(i) on a ball of G."""

    ball_size: int
    i: int
    conjugator: Word
    h_point: SubgroupHandle
    k_point: SubgroupHandle
    agree: bool


def orbit_agreement(
    rho: int, g: MarkedGroup, i: Optional[int] = None
) -> OrbitAgreement:
    """Compare <h^2> with its i-th conjugate on the radius-rho ball of g = G;
    i defaults to the escape index of that ball.  The ball is walked, not
    kept: once for the escape index, when i is not given, and once for the
    comparison.  Both walks skip the words with a non-zero exponent sum in
    G's coordinates: h is not a coordinate, so <h^2> and, the kernel being
    normal, its conjugates meet no such word."""
    oracle = g.oracle
    size = ball_size(g.arity, rho)
    if i is None:
        i = escape_index(enumerate_ball(oracle.alphabet, rho, g.coordinates), oracle)
    conjugator, k_point = orbit_witness(i, oracle)
    h_point = h2_handle(oracle)
    agree = chabauty_agree(
        h_point, k_point, enumerate_ball(oracle.alphabet, rho, g.coordinates)
    )
    return OrbitAgreement(size, i, conjugator, h_point, k_point, agree)


def condensed_pair(i: int, g: MarkedGroup) -> tuple[MarkedGroup, MarkedGroup]:
    """The extensions of G over <h^2> and over its i-th conjugate."""
    _, k_point = orbit_witness(i, g.oracle)
    return condense(g, h2_handle(g.oracle)), condense(g, k_point)
