"""The space of finitely generated marked groups and the Chabauty side.

Relation balls are the finite certificates of the topology: two markings
agree at radius r when exactly the same words of length <= r evaluate to
the identity.  Fingerprints are order-independent hashes of the sorted
canonical renderings, so repeated comparisons are O(1) after construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .baumslag import PolyFrac, a_module, monomial, span_membership
from .hnn import (
    DEFAULT_BUDGET,
    BaseOracle,
    GroupOracle,
    HnnOracle,
    SubgroupHandle,
    check_extends_zxb,
    conjugate_handle,
    g_oracle,
    h2_handle,
)
from .presentations import (
    ABC,
    ABCH,
    builtin,
    builtin_symmetries,
    zero_sum_coordinates,
)
from .words import (
    Alphabet,
    Word,
    ball_size,
    check_budget,
    check_lengths,
    conjugate,
    coordinate_steps,
    exponent_sum,
    gen,
    invert,
    invert_letters,
    rotations,
    _walk,
)


@dataclass(frozen=True)
class CyclicOracle(GroupOracle):
    """Word problem of Z (order None) or Z/order on one generator."""

    order: Optional[int] = None
    alphabet: Alphabet = Alphabet(("x",))

    def __post_init__(self) -> None:
        if self.alphabet.arity != 1:
            raise ValueError("cyclic oracle needs a one-letter alphabet")
        if self.order is not None and self.order < 1:
            raise ValueError("order must be positive")

    def decide(self, letters: Sequence[int]) -> bool:
        exponent = exponent_sum(letters)
        return exponent == 0 if self.order is None else exponent % self.order == 0


@dataclass(frozen=True)
class MarkedGroup:
    """A word-problem oracle together with its ordered generating tuple.

    The marking is the oracle's alphabet order.  That the marking
    generates is an assumption supplied by the constructor; it is not
    checkable from the oracle alone.  ``coordinates`` are generator
    indices whose exponent sums are homomorphisms to Z, as derived by
    ``zero_sum_coordinates``: every trivial word has sum 0 in each, so
    scans prune the rest.  The default () walks every word.

    ``symmetries`` generate a group of automorphisms that permute the
    letters: each is a letter permutation sigma, letter x to sigma[x],
    that is an involution, commutes with inversion (sigma[x ^ 1] ==
    sigma[x] ^ 1) and moves no letter that another moves.  That each maps
    every relator to a trivial word is an assumption, like the marking's;
    the class walk then tests one class per orbit.  The default () tests
    every class.

    ``shadow`` is a homomorphism to the affine maps z -> m z + c mod the
    prime ``SHADOW_MODULUS``, given as one (m, c) per letter, each the
    inverse of its partner's (``shadow_of`` composes them).  Every trivial
    word has shadow (1, 0), so the class walk decides no class whose
    shadow is another; that each relator has shadow (1, 0) is an
    assumption, like the marking's.  The default () decides every class.
    """

    name: str
    oracle: GroupOracle
    coordinates: tuple[int, ...] = ()
    symmetries: tuple[tuple[int, ...], ...] = ()
    shadow: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        _check_symmetries(self.symmetries, 2 * self.arity)
        _check_shadow(self.shadow, 2 * self.arity)

    @property
    def marking(self) -> tuple[str, ...]:
        return self.oracle.alphabet.names

    @property
    def arity(self) -> int:
        return self.oracle.alphabet.arity


@cache
def _check_symmetries(symmetries: tuple[tuple[int, ...], ...], n: int) -> None:
    """Refuse symmetries that are not involutions of the n letters, that do
    not commute with inversion, or whose supports overlap.  Cached, since
    the command line builds its group for each call, and E is checked
    three times in the making."""
    moved: set[int] = set()
    for sigma in symmetries:
        if len(sigma) != n or set(sigma) != set(range(n)):
            raise ValueError(f"symmetry {sigma} is not a permutation of range({n})")
        support: set[int] = set()
        for x, y in enumerate(sigma):
            if x != y:
                if sigma[y] != x:
                    raise ValueError(f"symmetry {sigma} is not an involution")
                if sigma[x ^ 1] != y ^ 1:
                    raise ValueError(
                        f"symmetry {sigma} does not commute with inversion"
                    )
                support.add(x)
        if not support:
            raise ValueError(f"symmetry {sigma} moves no letter")
        if not moved.isdisjoint(support):
            raise ValueError(
                f"symmetry {sigma} moves a letter that another symmetry moves"
            )
        moved |= support


SHADOW_MODULUS = 2**31 - 1  # a prime
SHADOW_IDENTITY = (1, 0)


def shadow_of(
    shadow: Sequence[tuple[int, int]], letters: Sequence[int]
) -> tuple[int, int]:
    """The affine map (m, c), z -> m z + c mod ``SHADOW_MODULUS``, of a
    word's letters under a shadow table: the composite of its letters'
    maps, the first letter outermost.  Any value other than
    ``SHADOW_IDENTITY`` proves the word non-trivial; a false identity
    costs only an oracle call."""
    m, c = SHADOW_IDENTITY
    for x in letters:  # reduced once, at the end
        mx, cx = shadow[x]
        c += m * cx
        m *= mx
    return m % SHADOW_MODULUS, c % SHADOW_MODULUS


def _affine_shadow(maps: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The shadow table of one affine map (m, c) per generator: each
    generator's map, then its inverse's."""
    p = SHADOW_MODULUS
    table: list[tuple[int, int]] = []
    for m, c in maps:
        m_inverse = pow(m, -1, p)
        table += [(m % p, c % p), (m_inverse, -m_inverse * c % p)]
    return tuple(table)


@cache
def _check_shadow(shadow: tuple[tuple[int, int], ...], n: int) -> None:
    """Refuse a shadow table that does not give each of the n letters a
    pair of residues, or in which a letter's map is not the inverse of its
    partner's.  Cached, as ``_check_symmetries`` is."""
    if not shadow:
        return
    if len(shadow) != n:
        raise ValueError(f"shadow has {len(shadow)} entries for {n} letters")
    for x, entry in enumerate(shadow):
        if len(entry) != 2 or not all(
            type(v) is int and 0 <= v < SHADOW_MODULUS for v in entry
        ):
            raise ValueError(
                f"shadow entry {entry!r} of letter {x} is not two residues"
            )
    for x in range(0, n, 2):
        if shadow_of(shadow, (x, x + 1)) != SHADOW_IDENTITY:
            raise ValueError(
                f"shadow of letter {x + 1} is not the inverse of letter {x}'s"
            )


# G's shadow: its affine quotient Z[1/2] x| Z, mod the prime, with a, b, c,
# h, s sent to z, z + beta, z + gamma, z + 1, 2z.  The relators of B hold
# since a is sent to the identity and translations commute, h commutes with
# each, and (h^2)^s = h a holds as (2z)^-1 (z + 2) (2z) = z + 1.  Any beta
# and gamma give a homomorphism; fixed ones keep every run the same.
_G_SHADOW = _affine_shadow(
    ((1, 0), (1, 1_480_955_641), (1, 719_542_087), (1, 1), (2, 0))
)


def marked_Z() -> MarkedGroup:
    return MarkedGroup("Z", CyclicOracle(None), (0,))


def marked_Zmod(n: int) -> MarkedGroup:
    return MarkedGroup(f"Z/{n}", CyclicOracle(n))


def builtin_group(name: str, budget: int = DEFAULT_BUDGET) -> MarkedGroup:
    """B, ZxB, G or E with the coordinates and symmetries of its
    presentation; E is the paper's condense(G, <h^2>), whose stable letter
    t commutes with h^2, and has G's symmetries and t -> t^-1.  G has its
    affine shadow, and E extends it by t -> z.  B and ZxB have none: a
    word the walk meets has exponent sum 0 in b, c (and h), so the
    restriction of G's would send it to the identity."""
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
    return MarkedGroup(
        name,
        oracle,
        zero_sum_coordinates(builtin(name)),
        builtin_symmetries(name),
        _G_SHADOW if name == "G" else (),
    )


@dataclass(frozen=True)
class RelationBall:
    """The letters of the trivial words of length <= r, sorted length-lex,
    with a stable fingerprint: the sha256 of their canonical renderings,
    the ``lines`` that ``export`` prints after its header."""

    radius: int
    letters: tuple[tuple[int, ...], ...]
    fingerprint: str
    lines: tuple[str, ...]

    @property
    def count(self) -> int:
        return len(self.letters)

    def export(self, group_name: str = "?") -> str:
        header = (
            f"# group={group_name} radius={self.radius} "
            f"count={self.count} fingerprint={self.fingerprint}"
        )
        return "\n".join((header, *self.lines)) + "\n"


def _least_in_class(v: tuple[int, ...]) -> bool:
    """Whether v, a necklace whose letters are all >= its first, an even
    letter, is its own ``relator_class``: no rotation of v^-1 is a smaller
    tuple, since none of v is.  Only a rotation that starts with v[0] can
    be, so v^-1 is scanned only if it holds v[0], that is if v holds
    v[0] ^ 1, and stops at the first smaller rotation."""
    n, first = len(v), v[0]
    if first ^ 1 not in v:
        return True
    s = invert_letters(v) * 2
    for k in range(n):
        if s[k] == first and s[k:k + n] < v:
            return False
    return True


def _trivial_classes(m: MarkedGroup, lengths: range) -> list[set[tuple[int, ...]]]:
    """The letters of the trivial class representatives of each of the
    given lengths, one set per length, from one depth-first walk.
    It recurses once per letter, so ``check_lengths`` refuses a range past
    the walks' cap before any call.

    Triviality is invariant under ``rotations``, so one call decides a
    class; its representative is ``relator_class``, cyclically reduced.
    The walk grows prefixes of every necklace, a word no larger than any
    of its rotations (Fredricksen-Maiorana): with p the period of the
    prefix, the next letter x must be at least prefix[d - p]; an equal
    one keeps p, a larger one makes it d + 1, and a prefix is a necklace
    when p divides its length d.  So every letter is at least the first,
    which is a generator, not an inverse, since any other word has a
    rotation of it or of its inverse that begins lower.  A prefix whose
    length is in the range is tested when it is a cyclically reduced
    necklace, no rotation of its inverse is smaller (``_least_in_class``),
    and its exponent sum is 0 in each of m's coordinates, since no other
    word is trivial in m; the walk goes deeper while those sums can
    still return to 0 in the letters left to the longest length.  The
    oracle decides a representative's letters, so the walk makes no
    ``Word``.

    Triviality is invariant under m's symmetries too, so one call decides
    an orbit of classes: a trivial class brings in the representative of
    each of its distinct images.  The least of an orbit, v, is no larger
    than sigma(v) for each symmetry sigma, and the first letter where
    they differ is v's first letter in sigma's support; so the walk cuts
    every prefix whose first letter there is the larger of its pair, and
    still reaches v.  A class already brought in is not tested, nor one
    whose shadow proves it non-trivial.  Each length's words are met in
    lex order, as a walk of that length alone meets them, so each length
    makes the same oracle calls as that walk would.
    """
    check_lengths(lengths)
    alphabet, decide, shadow = m.oracle.alphabet, m.oracle.decide, m.shadow
    n = 2 * alphabet.arity
    steps = coordinate_steps(alphabet, m.coordinates)
    owner, mirror = [0] * n, list(range(n))
    for bit, sigma in enumerate(m.symmetries):
        for x, y in enumerate(sigma):
            if x != y:
                owner[x], mirror[x] = 1 << bit, y
    images = [tuple(range(n))]  # the group the symmetries generate
    for sigma in m.symmetries:
        images += [tuple(sigma[x] for x in g) for g in images]
    low, high = lengths[0], lengths[-1]
    found: list[set[tuple[int, ...]]] = [set() for _ in lengths]
    sums = [0] * (len(m.coordinates) + 1)
    prefix: list[int] = []

    def test(v: tuple[int, ...]) -> None:
        trivial = found[len(v) - low]
        if v in trivial or shadow and shadow_of(shadow, v) != SHADOW_IDENTITY:
            return
        if not _least_in_class(v):
            return
        if decide(v):
            distinct = {tuple(map(g.__getitem__, v)) for g in images}
            trivial.update(min(rotations(w)) for w in distinct)

    def grow(d: int, norm: int, period: int, pending: int) -> None:
        # prefix: d >= 1 letters, a prefix of a necklace of period `period`;
        # each child has e letters, and `left` more to the longest length
        e = d + 1
        left, tested = high - e, e >= low
        cancel, repeat = prefix[-1] ^ 1, prefix[d - period]
        for x in range(repeat, n):
            if x == cancel:
                continue
            k, step = steps[x]
            old = sums[k]
            # |old + step| - |old| with no call, as in ``words._sphere_from``
            child = norm + step * step if old * step >= 0 else norm - 1
            if child > left:
                continue
            entered = pending and pending & owner[x]
            if entered and mirror[x] < x:
                continue
            p = period if x == repeat else e
            if not child and tested and not e % p and x != last:
                test((*prefix, x))
            if left:
                sums[k] = old + step
                prefix.append(x)
                grow(e, child, p, pending ^ entered)
                prefix.pop()
                sums[k] = old

    if not low and decide(()):
        found[0].add(())
    pending = (1 << len(m.symmetries)) - 1
    for first in range(0, n, 2):
        last = first ^ 1  # no class ends with it, since it cancels first
        k, step = steps[first]
        if step * step > high - 1 or pending & owner[first] and mirror[first] < first:
            continue
        if not step and low <= 1:
            test((first,))
        if high > 1:
            sums[k] = step
            prefix.append(first)
            grow(1, step * step, 1, pending ^ pending & owner[first])
            prefix.pop()
            sums[k] = 0
    return found


def relation_ball(m: MarkedGroup, r: int) -> RelationBall:
    """Exactly the trivial words of length <= r, as letter tuples sorted
    length-lex, each line rendered from its letters.

    Every freely reduced word is uniquely u c u^-1, reduced as written,
    with c cyclically reduced (Lyndon-Schupp, Ch. I), and is trivial iff
    c is.  So each length holds the ``rotations`` of its trivial classes,
    from one class walk over ``range(r + 1)`` that checks the radius
    against its cap before any work, and x w x^-1 for each word w two
    letters shorter and each letter x but w[0]^-1 and w[-1]: the lengths
    are closed one letter at a time, and each word is made once.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    spheres = [
        [c for v in classes for c in rotations(v)]
        for classes in _trivial_classes(m, range(r + 1))
    ]
    n = 2 * m.arity
    for length in range(1, r - 1):
        longer = spheres[length + 2]
        for w in spheres[length]:
            first, last = w[0] ^ 1, w[-1]
            longer += [(x, *w, x ^ 1) for x in range(n) if x != first and x != last]
    letters = tuple(w for sphere in spheres for w in sorted(sphere))
    spell = m.oracle.alphabet.canonical_spellings
    lines = tuple(" ".join(map(spell.__getitem__, w)) or "1" for w in letters)
    fingerprint = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return RelationBall(r, letters, fingerprint, lines)


class Agreement(NamedTuple):
    """Result of max_agreement: saturated means 'at least radius'."""

    radius: int
    saturated: bool

    def __str__(self) -> str:
        return f">= {self.radius}" if self.saturated else str(self.radius)


def max_agreement(m1: MarkedGroup, m2: MarkedGroup, r_max: int) -> Agreement:
    """Largest r <= r_max at which the relation balls coincide.

    Compares the sets of trivial class representatives of each sphere,
    radius by radius, each from a class walk over ``range(r, r + 1)``, so
    the first radius where they differ ends the comparison: the ball of
    radius r is the conjugation closure of those of length <= r.  Each
    marking's sphere is pruned by its own coordinates, which is exact: a
    word outside them is non-trivial in that marking.  Each is walked
    with its own symmetries and shadow, which is exact too: the sphere is
    every trivial class all the same.
    """
    if m1.arity != m2.arity:
        raise ValueError(f"arity mismatch: {m1.arity} vs {m2.arity}")
    if r_max < 0:
        raise ValueError("radius must be non-negative")
    for r in range(1, r_max + 1):
        lengths = range(r, r + 1)
        if _trivial_classes(m1, lengths) != _trivial_classes(m2, lengths):
            return Agreement(r - 1, False)
    return Agreement(r_max, True)


# ---------------------------------------------------------------------------
# Points of Sub(G) and the condensation map.
# ---------------------------------------------------------------------------


def chabauty_agree(
    h: SubgroupHandle, k: SubgroupHandle, words: Iterable[Sequence[int]]
) -> bool:
    """True iff the two subgroups meet the finite set identically: the
    freely reduced letters of words over their ambient group, as ``_walk``
    yields them, each handed to both handles' ``contains``."""
    if h.alphabet != k.alphabet:
        raise ValueError("Chabauty points must share the ambient group")
    h_contains, k_contains = h.contains, k.contains
    return all((h_contains(v) is None) == (k_contains(v) is None) for v in words)


def condense(m: MarkedGroup, point: SubgroupHandle) -> MarkedGroup:
    """The marked group on n+1 letters obtained by adjoining a stable
    letter commuting with the subgroup; marking = m's marking then t.
    The extension keeps the letter budget of m's oracle, if it has one,
    and m's coordinates plus t: every relator [t, z] has exponent sum 0
    in each letter.  It keeps each symmetry of m that the handle declares
    maps its subgroup onto itself, fixing t, since it maps each [t, z] to
    another, and adds t -> t^-1, since t^-1 commutes with the subgroup
    too.  It extends m's shadow, if it has one, by t -> z, which sends
    each [t, z] to the identity whatever the subgroup."""
    if point.alphabet != m.oracle.alphabet:
        raise ValueError("Chabauty point not over this marked group")
    budget = getattr(m.oracle, "budget", DEFAULT_BUDGET)
    oracle = HnnOracle(m.oracle, point.contains, point.contains, "t", budget=budget)
    t = 2 * m.arity
    kept = [sigma for sigma in m.symmetries if sigma in point.symmetries]
    symmetries = tuple(sigma + (t, t + 1) for sigma in kept)
    symmetries += (tuple(range(t)) + (t + 1, t),)
    shadow = m.shadow and m.shadow + (SHADOW_IDENTITY, SHADOW_IDENTITY)
    return MarkedGroup(
        f"E({m.name}, {point.label})",
        oracle,
        m.coordinates + (m.arity,),
        symmetries,
        shadow,
    )


# ---------------------------------------------------------------------------
# The escape construction inside G.
# ---------------------------------------------------------------------------


def escape_index(finite_set: Iterable[Sequence[int]], oracle: HnnOracle) -> int:
    """Smallest index i (0, 1, -1, 2, -2, ...) such that the monomial x^i
    escapes the GF(2)-span of the module parts of the set's intersection
    with the subgroup A.

    The set holds the freely reduced letters of words of G, as ``_walk``
    yields them.  Each is folded to its reduced form, which lies in A
    only if it lies in <h> x B, by Britton's lemma; ``a_module`` reads
    its coordinates, so the oracle must extend <h> x B.  Such an i
    exists for every finite set because A is not finitely generated.
    """
    check_extends_zxb(oracle, "A")
    module_parts: list[PolyFrac] = []
    for v in finite_set:
        out = oracle.in_base(v)
        m = None if out is None else a_module(out)
        if m is not None and not m.is_zero():
            module_parts.append(m)
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
    lengths = range(rho + 1)
    if i is None:
        i = escape_index(_walk(oracle.alphabet, lengths, g.coordinates), oracle)
    conjugator, k_point = orbit_witness(i, oracle)
    h_point = h2_handle(oracle)
    agree = chabauty_agree(
        h_point, k_point, _walk(oracle.alphabet, lengths, g.coordinates)
    )
    # sized after the walks, which refuse a radius past their cap at once
    return OrbitAgreement(
        ball_size(g.arity, rho), i, conjugator, h_point, k_point, agree
    )


def condensed_pair(i: int, g: MarkedGroup) -> tuple[MarkedGroup, MarkedGroup]:
    """The extensions of G over <h^2> and over its i-th conjugate."""
    _, k_point = orbit_witness(i, g.oracle)
    return condense(g, h2_handle(g.oracle)), condense(g, k_point)
