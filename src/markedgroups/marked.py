"""The space of finitely generated marked groups and the Chabauty side.

Relation balls are the finite certificates of the topology: two markings
agree at radius r when exactly the same words of length <= r evaluate to
the identity.  Fingerprints are order-independent hashes of the sorted
canonical renderings, so repeated comparisons are O(1) after construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .baumslag import PolyFrac, member_A, monomial, span_membership
from .hnn import (
    DEFAULT_BUDGET,
    GroupOracle,
    HnnOracle,
    SubgroupHandle,
    conjugate_handle,
    g_oracle,
    handle_for,
    member_in_G,
    pair_from_handle,
)
from .words import (
    Alphabet,
    Word,
    check_alphabet,
    check_budget,
    enumerate_ball,
    enumerate_sphere,
    free_reduce,
    gen,
    invert,
    render_canonical,
    sort_key,
    transfer,
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
        exponent = sum(sign for _, sign in w.letters)
        if self.order is None:
            return exponent == 0
        return exponent % self.order == 0


@dataclass(frozen=True)
class MarkedGroup:
    """A word-problem oracle together with its ordered generating tuple.

    The marking is the oracle's alphabet order.  That the marking
    generates is an assumption supplied by the constructor; it is not
    checkable from the oracle alone.
    """

    name: str
    oracle: GroupOracle

    @property
    def marking(self) -> tuple[str, ...]:
        return self.oracle.alphabet.names

    @property
    def arity(self) -> int:
        return self.oracle.alphabet.arity


def marked_Z() -> MarkedGroup:
    return MarkedGroup("Z", CyclicOracle(None))


def marked_Zmod(n: int) -> MarkedGroup:
    return MarkedGroup(f"Z/{n}", CyclicOracle(n))


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


def relation_ball(m: MarkedGroup, r: int) -> RelationBall:
    """Exactly the trivial words of length <= r, in deterministic order.

    Only one of each pair {w, w^-1} is tested, since triviality is
    inversion invariant; the scan runs in one thread.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    oracle = m.oracle
    trivial: list[Word] = []
    for w in enumerate_ball(oracle.alphabet, r):
        wi = invert(w)
        if sort_key(wi) < sort_key(w):
            continue  # tested as its inverse
        if oracle.is_trivial(w):
            trivial.append(w)
            if wi.letters != w.letters:
                trivial.append(wi)
    trivial.sort(key=sort_key)
    return RelationBall(r, tuple(trivial), _fingerprint(trivial))


def cong_r(m1: MarkedGroup, m2: MarkedGroup, r: int) -> bool:
    """True iff the radius-r relation balls coincide."""
    if m1.arity != m2.arity:
        raise ValueError(
            f"arity mismatch: {m1.arity} vs {m2.arity}"
        )
    b1 = relation_ball(m1, r)
    b2 = relation_ball(m2, r)
    return b1.fingerprint == b2.fingerprint


class Agreement(NamedTuple):
    """Result of max_agreement: saturated means 'at least radius'."""

    radius: int
    saturated: bool

    def __str__(self) -> str:
        return f">= {self.radius}" if self.saturated else str(self.radius)


def max_agreement(m1: MarkedGroup, m2: MarkedGroup, r_max: int) -> Agreement:
    """Largest r <= r_max at which the relation balls coincide.

    Scans sphere by sphere; a disagreement at radius r rules out all
    larger radii by monotonicity.
    """
    if m1.arity != m2.arity:
        raise ValueError(f"arity mismatch: {m1.arity} vs {m2.arity}")
    if r_max < 0:
        raise ValueError("radius must be non-negative")
    a1 = m1.oracle.alphabet
    a2 = m2.oracle.alphabet
    for r in range(1, r_max + 1):
        for w in enumerate_sphere(a1, r):
            if m1.oracle.is_trivial(w) != m2.oracle.is_trivial(transfer(w, a2)):
                return Agreement(r - 1, False)
    return Agreement(r_max, True)


# ---------------------------------------------------------------------------
# Chabauty points and the condensation map.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChabautyPoint:
    """A subgroup of the ambient group, given by a membership handle."""

    ambient: GroupOracle
    handle: SubgroupHandle
    label: str = ""


def chabauty_agree(
    h: ChabautyPoint, k: ChabautyPoint, finite_set: Iterable[Word]
) -> bool:
    """True iff the two subgroups meet the finite set identically."""
    if h.ambient.alphabet != k.ambient.alphabet:
        raise ValueError("Chabauty points must share the ambient group")
    return all(h.handle(w) == k.handle(w) for w in finite_set)


def condense(
    m: MarkedGroup, point: ChabautyPoint, *, stable: str = "t"
) -> MarkedGroup:
    """The marked group on n+1 letters obtained by adjoining a stable
    letter commuting with the subgroup; marking = m's marking then t.
    The extension keeps the letter budget of m's oracle, if it has one."""
    if point.ambient.alphabet != m.oracle.alphabet:
        raise ValueError("Chabauty point not over this marked group")
    budget = getattr(m.oracle, "budget", DEFAULT_BUDGET)
    oracle = HnnOracle(m.oracle, pair_from_handle(point.handle), stable, budget=budget)
    label = point.label or point.handle.label
    return MarkedGroup(f"E({m.name}, {label})", oracle)


# ---------------------------------------------------------------------------
# The escape construction inside G.
# ---------------------------------------------------------------------------


def escape_index(
    finite_set: Iterable[Word], oracle: Optional[HnnOracle] = None
) -> int:
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


def orbit_witness(
    i: int, oracle: Optional[HnnOracle] = None
) -> tuple[Word, ChabautyPoint]:
    """The conjugator g = (s b^i)^-1 and the point for g H g^-1.

    The conjugate subgroup is generated by h a^{b^i}; its square is h^2,
    so it differs from <h^2> exactly by the coset of the witness.  Raises
    BudgetExceededError before building s b^i when it has more letters
    than the oracle's budget.
    """
    oracle = oracle or g_oracle()
    check_budget(abs(i) + 1, oracle.budget)
    alphabet = oracle.alphabet
    sbi = free_reduce(gen(alphabet, "s") * gen(alphabet, "b") ** i)
    g = invert(sbi)
    handle = conjugate_handle(g, handle_for("H2", oracle))
    return g, ChabautyPoint(oracle, handle, label=f"conj(sb^{i}, H2)")


def h2_point(oracle: Optional[HnnOracle] = None) -> ChabautyPoint:
    oracle = oracle or g_oracle()
    return ChabautyPoint(oracle, handle_for("H2", oracle), label="H2")


class OrbitAgreement(NamedTuple):
    """<h^2> against its conjugate gHg^-1 = orbit_witness(i) on a ball of G."""

    finite_set: list[Word]
    i: int
    conjugator: Word
    h_point: ChabautyPoint
    k_point: ChabautyPoint
    agree: bool


def orbit_agreement(
    rho: int, oracle: HnnOracle, i: Optional[int] = None
) -> OrbitAgreement:
    """Compare <h^2> with its i-th conjugate on the radius-rho ball of G;
    i defaults to the escape index of that ball."""
    finite_set = list(enumerate_ball(oracle.alphabet, rho))
    if i is None:
        i = escape_index(finite_set, oracle)
    g, k_point = orbit_witness(i, oracle)
    h_point = h2_point(oracle)
    agree = chabauty_agree(h_point, k_point, finite_set)
    return OrbitAgreement(finite_set, i, g, h_point, k_point, agree)


def condensed_balls(
    i: int, r: int, oracle: HnnOracle
) -> tuple[tuple[MarkedGroup, MarkedGroup], tuple[RelationBall, RelationBall]]:
    """The extensions of G over <h^2> and over its i-th conjugate, and
    their radius-r relation balls."""
    g_marked = MarkedGroup("G", oracle)
    _, k_point = orbit_witness(i, oracle)
    left, right = condense(g_marked, h2_point(oracle)), condense(g_marked, k_point)
    balls = relation_ball(left, r), relation_ball(right, r)
    return (left, right), balls
