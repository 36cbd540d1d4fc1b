import hashlib
import random
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

import markedgroups.marked as marked
import markedgroups.words as words
from markedgroups.hnn import (
    DEFAULT_BUDGET,
    GroupOracle,
    HnnOracle,
    SubgroupHandle,
    conjugate_handle,
    g_oracle,
    h2_handle,
)
from markedgroups.marked import (
    SHADOW_IDENTITY,
    Agreement,
    CyclicOracle,
    MarkedGroup,
    _affine_shadow,
    _least_in_class,
    _trivial_classes,
    builtin_group,
    chabauty_agree,
    condense,
    escape_index,
    escape_words,
    marked_Z,
    marked_Zmod,
    max_agreement,
    orbit_agreement,
    orbit_witness,
    relation_ball,
    shadow_of,
)
from markedgroups.presentations import (
    ABCHS,
    ABCHST,
    builtin,
    builtin_symmetries,
    hnn_presentation,
    relator_class,
    zero_sum_coordinates,
)
from markedgroups.words import (
    Alphabet,
    Word,
    commutator,
    conjugate,
    enumerate_ball,
    enumerate_sphere,
    free_reduce,
    gen,
    invert,
    invert_letters,
    parse_word,
    render_canonical,
    render_word,
    rotations,
    _walk,
)

G_MARKED = MarkedGroup("G", g_oracle())
G = G_MARKED.oracle


def gw(text):
    return parse_word(text, ABCHS)


# -- relation balls ----------------------------------------------------------


def _walk_words(n, length):
    """The cyclically reduced words of the given length over n letters
    that the walk's first-letter rule keeps: an even first letter, and no
    letter below it."""
    level = [(f,) for f in range(0, n, 2)]
    for _ in range(length - 1):
        level = [v + (x,) for v in level for x in range(v[0], n) if x != v[-1] ^ 1]
    return [v for v in level if v[-1] != v[0] ^ 1]


class RecordingOracle(GroupOracle):
    """Calls every word but the empty one non-trivial and keeps the
    letters it is asked about, so a walk over it tests every class."""

    def __init__(self, alphabet):
        self.alphabet = alphabet
        self.asked = []

    def decide(self, letters):
        self.asked.append(letters)
        return not letters


def test_class_test_stops_at_the_least_rotation():
    # the early-exit class test is relator_class's least rotation on the
    # words the walk gives it, necklaces under its first-letter rule:
    # random ones, with repeated letters and periodic words among them,
    # and every necklace among the cyclically reduced words over B's
    # alphabet up to length 7 that keep the rule, generated here
    def necklace(v):
        return all(v <= v[k:] + v[:k] for k in range(len(v)))

    rng = random.Random(7)
    alphabet = Alphabet(("x", "y"))
    tested = 0
    for _ in range(3000):
        first = rng.choice((0, 2))
        body = rng.choices(range(first, 4), k=rng.randrange(8))
        v = (first, *body) * rng.randrange(1, 3)
        if necklace(v):
            tested += 1
            assert _least_in_class(v) == (relator_class(Word(alphabet, v)) == v), v
    assert tested > 1000
    abc = builtin("B").alphabet
    walked = [v for length in range(1, 8) for v in _walk_words(6, length)]
    assert len(walked) == 17109
    for v in walked:
        if necklace(v):
            assert _least_in_class(v) == (relator_class(Word(abc, v)) == v), v
    # the walk tests exactly the classes, each at its representative
    oracle = RecordingOracle(abc)
    _trivial_classes(MarkedGroup("B", oracle), range(8))
    classes = [v for v in walked if relator_class(Word(abc, v)) == v]
    assert oracle.asked == [()] + sorted(classes)


def _canonical(group, ball):
    """The ball's words, each rendered by ``render_canonical``."""
    return [render_canonical(Word(group.oracle.alphabet, v)) for v in ball.letters]


def test_relation_ball_z():
    ball = relation_ball(marked_Z(), 3)
    assert _canonical(marked_Z(), ball) == ["1"]


def test_relation_ball_zmod2():
    ball = relation_ball(marked_Zmod(2), 2)
    assert _canonical(marked_Zmod(2), ball) == [
        "1", "x1 x1", "x1^-1 x1^-1"
    ]


class CountingOracle(GroupOracle):
    """Passes every decision through to an oracle and counts them."""

    def __init__(self, inner):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.calls = 0

    def decide(self, letters):
        self.calls += 1
        return self.inner.decide(letters)


def _refuse_words(monkeypatch, keep=()):
    """Make building a Word an error: a checked one anywhere, and an
    unchecked one through the ``_word`` of each module of the package but
    those kept."""

    def refuse(*args):
        raise AssertionError("a Word was built")

    monkeypatch.setattr(Word, "__post_init__", refuse)
    for name, module in list(sys.modules.items()):
        if name.startswith("markedgroups.") and module not in keep:
            if hasattr(module, "_word"):
                monkeypatch.setattr(module, "_word", refuse)


@pytest.mark.parametrize(
    "group, r, calls",
    [(marked_Z(), r, r + 1) for r in range(5)]
    + [(MarkedGroup("E", builtin_group("E").oracle), 2, 43)],
)
def test_relation_ball_tests_one_word_per_inverse_pair(group, r, calls):
    counting = CountingOracle(group.oracle)
    ball = relation_ball(MarkedGroup(group.name, counting), r)
    assert counting.calls == calls
    assert ball == relation_ball(group, r)


def test_relation_ball_e_radius2():
    e_marked = MarkedGroup("E", condense(G_MARKED, h2_handle(G)).oracle)
    ball = relation_ball(e_marked, 2)
    assert _canonical(e_marked, ball) == [
        "1", "x1 x1", "x1^-1 x1^-1"
    ]


def test_relation_ball_closed_under_inversion():
    ball = relation_ball(marked_Zmod(4), 5)
    rendered = set(ball.letters)
    for v in ball.letters:
        assert invert_letters(v) in rendered
        assert len(v) <= 5


def test_relation_ball_matches_naive_sweep():
    # independent route: test every ball word directly, no inversion pruning
    m = marked_Zmod(3)
    ball = relation_ball(m, 6)
    naive = [
        w for w in enumerate_ball(m.oracle.alphabet, 6)
        if m.oracle.is_trivial(w)
    ]
    assert list(ball.letters) == [w.letters for w in naive]


def test_relation_ball_export_header():
    ball = relation_ball(marked_Zmod(2), 2)
    lines = ball.export("Z/2").splitlines()
    assert lines[0] == (
        f"# group=Z/2 radius=2 count=3 fingerprint={ball.fingerprint}"
    )
    assert lines[1:] == ["1", "x1 x1", "x1^-1 x1^-1"]


def _pruned_groups():
    g = builtin_group("G")
    h2_ext = condense(g, h2_handle(g.oracle))
    k_ext = condense(g, orbit_witness(2, g.oracle)[1])
    return [
        (builtin_group("B"), 5), (builtin_group("ZxB"), 4),
        (builtin_group("G"), 5), (builtin_group("E"), 4),
        (marked_Z(), 6), (marked_Zmod(4), 6), (h2_ext, 3), (k_ext, 3),
    ]


@pytest.mark.parametrize(
    "group, r_max", _pruned_groups(), ids=lambda v: getattr(v, "name", v)
)
def test_relation_ball_pruned_equals_full_walk(group, r_max):
    full = replace(group, coordinates=())
    for r in range(r_max + 1):
        assert relation_ball(group, r) == relation_ball(full, r), r


@pytest.mark.parametrize(
    "group, r_max",
    [
        (builtin_group("B"), 6), (builtin_group("ZxB"), 5),
        (builtin_group("G"), 6), (builtin_group("E"), 5),
        (marked_Z(), 8), (marked_Zmod(4), 8),
        *((group, 4) for group, _ in _pruned_groups()[-2:]),
    ],
    ids=lambda v: getattr(v, "name", v),
)
def test_relation_ball_equals_brute_force(group, r_max):
    # the class walk and its conjugation closure against testing every word
    # of the pruned ball, with no inverse or class skip
    oracle = group.oracle
    brute = [
        w.letters for w in enumerate_ball(oracle.alphabet, r_max, group.coordinates)
        if oracle.is_trivial(w)
    ]
    for r in range(r_max + 1):
        ball = list(relation_ball(group, r).letters)
        assert len(set(ball)) == len(ball), r  # the closure makes no word twice
        assert ball == [w for w in brute if len(w) <= r], r


def _short_relator_classes(relators, n, r):
    """The cyclic classes of length <= r of each rotated relator and of
    each freely reduced product r1 · u r2 u^-1 of two, with |u| <= 2, over
    n letters: trivial words made from the presentation alone.  Rotations
    of cyclically reduced relators and the reduced u r2 u^-1 are freely
    reduced, so a pair that cancels at neither end where it meets is
    cyclically reduced as written; it is skipped when longer than r."""

    def cyclic_class(letters):
        w = words._reduce_letters(letters)
        i, j = 0, len(w)
        while j - i > 1 and w[i] == w[j - 1] ^ 1:
            i, j = i + 1, j - 1
        return min(rotations(tuple(w[i:j]))) if j - i <= r else None

    rotated = sorted({
        s[k:] + s[:k]
        for rel in relators
        for s in (rel.letters, invert_letters(rel.letters))
        for k in range(len(s))
    })
    us = [()] + [(x,) for x in range(n)]
    us += [(x, y) for x in range(n) for y in range(n) if y != x ^ 1]
    conjugates = {
        tuple(words._reduce_letters(u + r2 + invert_letters(u)))
        for u in us for r2 in rotated
    }
    by_first, by_last = [set() for _ in range(n)], [set() for _ in range(n)]
    for c in conjugates:
        by_first[c[0]].add(c)
        by_last[c[-1]].add(c)
    classes = {cyclic_class(r1) for r1 in rotated}
    for r1 in rotated:
        short = {c for c in conjugates if len(r1) + len(c) <= r}
        for c in by_first[r1[-1] ^ 1] | by_last[r1[0] ^ 1] | short:
            classes.add(cyclic_class(r1 + c))
    classes.discard(None)
    return classes


def test_relation_ball_holds_every_short_relator_product():
    # a floor under each sphere, from the presentation alone: every class
    # a relator product reaches is one the walk finds trivial, so neither
    # the walk's cuts nor a "non-trivial" verdict of the oracle drops it.
    # The counts are the generator's, pinned from it alone.
    g = builtin_group("G")
    h, s, b = (gen(ABCHS, name) for name in "hsb")
    # K_1 = g <h^2> g^-1 for g = (s b)^-1, generated by (h^2)^(s b)
    k1 = hnn_presentation(builtin("G"), "f(K_1)", (conjugate(h ** 2, s * b),), "t")
    cases = [
        (builtin_group(name), builtin(name).relators, r, count)
        for name, r, count in (
            ("B", 8, 62), ("ZxB", 8, 402), ("G", 8, 524), ("E", 8, 664)
        )
    ]
    cases.append((condense(g, orbit_witness(1, g.oracle)[1]), k1.relators, 7, 80))
    for group, relators, r, count in cases:
        classes = _short_relator_classes(relators, 2 * group.arity, r)
        assert len(classes) == count, group.name
        spheres = {v for sphere in _trivial_classes(group, range(r + 1)) for v in sphere}
        assert classes <= spheres, (group.name, sorted(classes - spheres))


@pytest.mark.parametrize("name", ["B", "ZxB", "G", "E"])
def test_builtin_group(name):
    group = builtin_group(name)
    pres = builtin(name)
    assert group.name == name
    assert group.marking == pres.alphabet.names
    assert group.coordinates == zero_sum_coordinates(pres)
    assert all(group.oracle.is_trivial(rel) for rel in pres.relators)


def test_builtin_group_budget_and_unknown_name():
    e = builtin_group("E", 50)
    assert e.oracle.budget == 50 and e.oracle.base.budget == 50
    with pytest.raises(KeyError):
        builtin_group("F")


# -- letter symmetries -------------------------------------------------------


@pytest.mark.parametrize(
    "symmetries, message",
    [
        (((1, 0, 2, 3),), "is not a permutation"),
        (((0, 1, 2, 3, 4, 4),), "is not a permutation"),
        (((0, 1, 2, 3, 4, 5),), "moves no letter"),
        # a -> b -> c -> a, each inverse along: not an involution
        (((2, 3, 4, 5, 0, 1),), "is not an involution"),
        # a <-> b with a^-1 and b^-1 left where they are
        (((2, 1, 0, 3, 4, 5),), "does not commute with inversion"),
        # a -> a^-1 and a <-> b^-1 both move a
        (((1, 0, 2, 3, 4, 5), (3, 2, 1, 0, 4, 5)), "another symmetry moves"),
    ],
)
def test_symmetries_are_refused(symmetries, message):
    with pytest.raises(ValueError, match=message):
        MarkedGroup("B", builtin_group("B").oracle, (), symmetries)


def test_builtin_symmetries():
    # a -> a^-1 and b <-> c in B, also h -> h^-1 from ZxB on, and E has G's
    # three, which the H2 handle declares, and t -> t^-1 from condense
    a, bc = (1, 0, 2, 3, 4, 5), (0, 1, 4, 5, 2, 3)
    assert builtin_group("B").symmetries == (a, bc)
    g = builtin_group("G")
    assert g.symmetries == (a + (6, 7, 8, 9), bc + (6, 7, 8, 9), (*range(6), 7, 6, 8, 9))
    assert h2_handle(g.oracle).symmetries == g.symmetries
    e = builtin_group("E").symmetries
    assert e == tuple(sigma + (10, 11) for sigma in g.symmetries) + (
        (*range(10), 11, 10),
    )
    # a conjugate handle declares those that fix its conjugator b^-i s^-1
    # letter for letter: a -> a^-1 and h -> h^-1, and b <-> c when i = 0
    a_e, bc_e, h_e = (sigma + (10, 11) for sigma in g.symmetries)
    t_e = (*range(10), 11, 10)
    for i in (1, -1, 2):
        _, k_point = orbit_witness(i, g.oracle)
        assert condense(g, k_point).symmetries == (a_e, h_e, t_e)
    _, k_point = orbit_witness(0, g.oracle)
    assert condense(g, k_point).symmetries == (a_e, bc_e, h_e, t_e)
    assert condense(replace(g, symmetries=()), h2_handle(g.oracle)).symmetries == (t_e,)


def _symmetric_groups():
    z4 = replace(marked_Zmod(4), symmetries=((1, 0),))  # x -> x^-1
    g = builtin_group("G")
    # f(K_i) = condense(G, K_i) for the escaping conjugates K_1 and K_0
    k_groups = [condense(g, orbit_witness(i, g.oracle)[1]) for i in (1, 0)]
    return (
        [(builtin_group(name), 7) for name in ("B", "ZxB", "G", "E")]
        + [(k_group, 6) for k_group in k_groups]
        + [(z4, 12)]
    )


@pytest.mark.parametrize(
    "group, r", _symmetric_groups(), ids=lambda v: getattr(v, "name", v)
)
def test_relation_ball_same_with_and_without_symmetries(group, r):
    # the cut walk and its orbit closure against testing every class; the
    # radius-r ball holds every shorter one.  On one letter x -> x^-1 maps
    # each class to itself, so it saves no call.
    plain = replace(group, symmetries=())
    counting, counting_plain = CountingOracle(group.oracle), CountingOracle(plain.oracle)
    ball = relation_ball(replace(group, oracle=counting), r)
    assert ball == relation_ball(replace(plain, oracle=counting_plain), r)
    assert counting.calls < counting_plain.calls or group.arity == 1
    # each marking walks with its own symmetries
    assert max_agreement(group, plain, r) == Agreement(r, True)


# -- the affine shadow -------------------------------------------------------


def _k_presentation(i):
    """The presentation of f(K_i), K_i = g <h^2> g^-1 for g = (s b^i)^-1,
    generated by g h^2 g^-1 = (h^2)^(s b^i)."""
    h, sb = gen(ABCHS, "h"), escape_words(i, ABCHS)[0]
    return hnn_presentation(builtin("G"), f"f(K_{i})", (conjugate(h ** 2, sb),), "t")


def test_shadow_is_a_homomorphism():
    # every relator of G, of E and of each f(K_i) of the orbit maps to the
    # identity under the shadow its marked group carries
    g = builtin_group("G")
    cases = [(g, builtin("G")), (builtin_group("E"), builtin("E"))]
    for i in range(-2, 3):
        cases.append((condense(g, orbit_witness(i, g.oracle)[1]), _k_presentation(i)))
    for group, presentation in cases:
        assert len(group.shadow) == 2 * group.arity, group.name
        for rel in presentation.relators:
            assert shadow_of(group.shadow, rel.letters) == SHADOW_IDENTITY, (
                group.name, render_word(rel)
            )
    # the check has teeth: with s -> 3z, (h^2)^s = h a no longer holds
    s_index = ABCHS.index("s")
    mutant = g.shadow[:2 * s_index] + _affine_shadow([(3, 0)])
    assert any(
        shadow_of(mutant, rel.letters) != SHADOW_IDENTITY
        for rel in builtin("G").relators
    )


@pytest.mark.parametrize(
    "shadow, message",
    [
        (((1, 0),) * 5, "has 5 entries for 6 letters"),
        (((1, 0),) * 8, "has 8 entries for 6 letters"),
        # b -> z + 1 with b^-1 -> z + 1 as well
        (((1, 0), (1, 0), (1, 1), (1, 1), (1, 0), (1, 0)), "not the inverse"),
        # a -> 2z with a^-1 -> 2z
        (((2, 0), (2, 0), (1, 0), (1, 0), (1, 0), (1, 0)), "not the inverse"),
        (((1, 0), (1, 0), (1, 0), (1, 0), (1, 2**31 - 1), (1, 0)), "two residues"),
        (((1, 0), (1, 0), (1, 0), (1, 0), (1, 0, 0), (1, 0)), "two residues"),
    ],
)
def test_shadow_tables_are_refused(shadow, message):
    with pytest.raises(ValueError, match=message):
        MarkedGroup("B", builtin_group("B").oracle, shadow=shadow)


def test_builtin_shadows():
    # G has its table and E extends it by t -> z; B and ZxB have none
    g, e = builtin_group("G"), builtin_group("E")
    assert builtin_group("B").shadow == builtin_group("ZxB").shadow == ()
    assert e.shadow == g.shadow + (SHADOW_IDENTITY, SHADOW_IDENTITY)
    assert condense(replace(g, shadow=()), h2_handle(g.oracle)).shadow == ()
    # a is sent to z, h to z + 1 and s to 2z
    assert [shadow_of(g.shadow, gw(text).letters) for text in ("a", "h", "s")] == [
        (1, 0), (1, 1), (2, 0)
    ]


def test_trivial_verdicts_have_identity_shadow():
    # an independent check of the oracle's "trivial" verdicts: the shadow
    # is a homomorphism, so each trivial word has shadow the identity.
    # The balls are built with no shadow, so it prunes none of them
    g = builtin_group("G")
    k1 = condense(g, orbit_witness(1, g.oracle)[1])
    for group, r in ((builtin_group("E"), 7), (g, 6), (k1, 6)):
        ball = relation_ball(replace(group, shadow=()), r)
        assert ball.count > 1
        for v in ball.letters:
            assert shadow_of(group.shadow, v) == SHADOW_IDENTITY, (
                group.name, render_word(Word(group.oracle.alphabet, v))
            )
    # random words, and products of conjugated relators, some times a
    # random word: decide is true only where the shadow is the identity
    rng = random.Random(31)
    for name in ("G", "E"):
        group = builtin_group(name)
        n, relators = 2 * group.arity, builtin(name).relators
        verdicts = []
        for _ in range(600):
            letters = [rng.randrange(n) for _ in range(rng.randrange(13))]
            if rng.random() < 0.5:
                for _ in range(rng.randrange(1, 4)):
                    u = [rng.randrange(n) for _ in range(rng.randrange(3))]
                    rel = list(rng.choice(relators).letters)
                    if rng.random() < 0.5:
                        rel = list(invert_letters(rel))
                    letters += u + rel + list(invert_letters(u))
                if rng.random() < 0.5:
                    letters += [rng.randrange(n) for _ in range(rng.randrange(1, 4))]
            v = tuple(words._reduce_letters(letters))
            trivial = group.oracle.decide(v)
            identity = shadow_of(group.shadow, v) == SHADOW_IDENTITY
            assert identity or not trivial, (name, v)
            verdicts.append((trivial, identity))
        # both verdicts occur, and identity shadows that are not trivial
        assert {(True, True), (False, True), (False, False)} <= set(verdicts), name


def _shadowed_groups():
    g = builtin_group("G")
    # B and ZxB lie in G on the same letters, so G's table restricts to
    # each; their coordinates already send every translation to 0
    bases = [
        replace(builtin_group(name), shadow=g.shadow[:2 * builtin(name).alphabet.arity])
        for name in ("B", "ZxB")
    ]
    k_groups = [condense(g, orbit_witness(i, g.oracle)[1]) for i in (1, 0)]
    return (
        [(group, 7) for group in bases + [g, builtin_group("E")]]
        + [(k_group, 6) for k_group in k_groups]
    )


@pytest.mark.parametrize(
    "group, r", _shadowed_groups(), ids=lambda v: getattr(v, "name", v)
)
def test_relation_ball_same_with_and_without_shadow(group, r):
    # the walk that decides only identity shadows against deciding every
    # class; the radius-r ball holds every shorter one
    plain = replace(group, shadow=())
    counting, counting_plain = CountingOracle(group.oracle), CountingOracle(plain.oracle)
    ball = relation_ball(replace(group, oracle=counting), r)
    assert ball == relation_ball(replace(plain, oracle=counting_plain), r)
    if group.name in ("B", "ZxB"):
        assert counting.calls == counting_plain.calls
    else:
        assert counting.calls < counting_plain.calls
    assert max_agreement(group, plain, r) == Agreement(r, True)


@pytest.mark.parametrize(
    "shadow, calls",
    [(True, [1, 1, 1, 1, 14, 32, 192]), (False, [1, 2, 3, 4, 30, 124, 731])],
    ids=["shadow", "no-shadow"],
)
def test_e_class_walk_calls_per_sphere(shadow, calls):
    # the oracle calls of E's class walk, sphere by sphere, with its 16
    # symmetries; the shadow decides 242 classes of the 895 to radius 6
    e = builtin_group("E")
    if not shadow:
        e = replace(e, shadow=())
    made = []
    for n in range(len(calls)):
        counting = CountingOracle(e.oracle)
        _trivial_classes(replace(e, oracle=counting), range(n, n + 1))
        made.append(counting.calls)
    assert made == calls


class LengthCountingOracle(CountingOracle):
    """Counts the decisions at each word length too."""

    def __init__(self, inner):
        super().__init__(inner)
        self.by_length = Counter()

    def decide(self, letters):
        self.by_length[len(letters)] += 1
        return super().decide(letters)


def _one_walk_groups():
    # the classes and calls of each length, pinned from walks of one length
    g = builtin_group("G")
    k_1, k_0 = (condense(g, orbit_witness(i, g.oracle)[1]) for i in (1, 0))
    cases = [
        (builtin_group("B"), [1, 0, 1, 0, 2, 0, 15, 16], [1, 1, 1, 1, 4, 9, 39, 128]),
        (builtin_group("ZxB"), [1, 0, 1, 0, 6, 0, 75, 16], [1, 1, 1, 1, 7, 15, 73, 292]),
        (g, [1, 0, 1, 0, 6, 0, 81, 16], [1, 1, 1, 1, 9, 20, 97, 445]),
        (builtin_group("E"), [1, 0, 1, 0, 6, 0, 84, 16], [1, 1, 1, 1, 14, 32, 192, 881]),
        (k_1, [1, 0, 1, 0, 6, 0, 84], [1, 1, 1, 1, 18, 48, 275]),
        (k_0, [1, 0, 1, 0, 6, 0, 100], [1, 1, 1, 1, 14, 32, 190]),
    ]
    return [pytest.param(*case, id=case[0].name) for case in cases]


@pytest.mark.parametrize("group, classes, calls", _one_walk_groups())
def test_one_walk_finds_each_length_as_a_walk_of_it_alone(group, classes, calls):
    # one walk over range(r + 1) finds, at each length, the classes that a
    # walk of that length alone finds, with the same oracle calls; so does
    # a walk over a range that starts past 0
    r = len(calls) - 1
    one = LengthCountingOracle(group.oracle)
    spheres = _trivial_classes(replace(group, oracle=one), range(r + 1))
    assert [len(sphere) for sphere in spheres] == classes
    assert [one.by_length[n] for n in range(r + 1)] == calls
    assert sum(calls) == one.calls
    for n in range(r + 1):
        alone = CountingOracle(group.oracle)
        sphere = _trivial_classes(replace(group, oracle=alone), range(n, n + 1))
        assert sphere == [spheres[n]], n
        assert alone.calls == calls[n], n
    assert _trivial_classes(group, range(2, r + 1)) == spheres[2:]


def test_class_walk_refuses_a_radius_past_its_cap_before_any_call():
    for group in (builtin_group("E"), marked_Zmod(4)):
        counting = CountingOracle(group.oracle)
        with pytest.raises(ValueError, match="radius must be at most 500, got 501"):
            relation_ball(replace(group, oracle=counting), 501)
        assert counting.calls == 0
    # the walk recurses once per letter, and the cap itself still runs
    ball = relation_ball(marked_Zmod(4), 500)
    assert ball.count == 251 and ball.letters[-1] == (1,) * 500


def test_condense_coordinates():
    g = builtin_group("G")
    assert g.coordinates == (1, 2, 4)
    assert condense(g, h2_handle(g.oracle)).coordinates == (1, 2, 4, 5)
    assert marked_Z().coordinates == (0,) and marked_Zmod(3).coordinates == ()


def test_relation_ball_keeps_trivial_word_with_odd_a_count():
    # a^c = a a^b: this relator has three a's, so a filter on the parity of
    # a would drop it; a is no coordinate of B, and the walk keeps it
    w = parse_word("c^-1 a c b^-1 a^-1 b a^-1", builtin("B").alphabet)
    assert sum(x >> 1 == 0 for x in w.letters) % 2 == 1
    ball = relation_ball(builtin_group("B"), 7)
    assert w.letters in ball.letters


@pytest.mark.parametrize(
    "name, count, fingerprint",
    [
        ("G", 1503, "eb7c0ef75f21e9e16baee046c4626c21d1e2eddc83cfb93c9a3f2bd41729d41a"),
        ("E", 1703, "cc3a61a18e0ff1a731de5b747095a89785945d92a0adf0b677a54e5f9a2b012f"),
    ],
    ids=["G", "E"],
)
def test_relation_ball_radius6_pinned(name, count, fingerprint):
    # pinned from the full scan, before balls were pruned
    ball = relation_ball(builtin_group(name), 6)
    assert (ball.count, ball.fingerprint) == (count, fingerprint)


def test_relation_ball_e_radius7_pinned():
    # first reproduced by the full brute-force scan
    ball = relation_ball(builtin_group("E"), 7)
    assert (ball.count, ball.fingerprint) == (
        1927, "fc9be2fc58dc667ddb43b838d0b029a1971844da967d474b19ff792f37219a2d"
    )


@pytest.mark.parametrize(
    "group, r", [(marked_Zmod(2), 2), (builtin_group("E"), 5)], ids=["Z/2", "E"]
)
def test_relation_ball_renders_each_word_once(monkeypatch, group, r):
    # each line is rendered once, from its letters: the ball looks up one
    # spelling per letter of its words and no more; the fingerprint and
    # the export read those lines
    looked_up = []

    class CountingSpellings(tuple):
        def __getitem__(self, x):
            looked_up.append(x)
            return super().__getitem__(x)

    alphabet = group.oracle.alphabet
    spellings = CountingSpellings(alphabet.canonical_spellings)
    monkeypatch.setitem(vars(alphabet), "canonical_spellings", spellings)
    ball = relation_ball(group, r)
    assert looked_up == [x for v in ball.letters for x in v]
    monkeypatch.undo()
    assert list(ball.lines) == _canonical(group, ball)
    body = ball.export(group.name).split("\n", 1)[1]
    assert body == "\n".join(ball.lines) + "\n"
    assert hashlib.sha256(body.removesuffix("\n").encode()).hexdigest() == (
        ball.fingerprint
    )


@pytest.mark.parametrize(
    "group, r", [(builtin_group("E"), 5), (builtin_group("B"), 5)], ids=["E", "B"]
)
def test_relation_ball_builds_a_word_only_to_test_or_return_it(monkeypatch, group, r):
    # a walked leaf stays a letter tuple, the oracle decides a class
    # representative's letters, and the ball is kept as letter tuples:
    # building it makes no Word at all
    _refuse_words(monkeypatch)
    counting = CountingOracle(group.oracle)
    ball = relation_ball(replace(group, oracle=counting), r)
    assert counting.calls > 0 and ball.count > 1


# -- agreement ---------------------------------------------------------------


def test_cong_r_examples():
    # the radius-r balls coincide iff max_agreement(.., r) is saturated
    assert max_agreement(marked_Zmod(5), marked_Z(), 4).saturated
    assert not max_agreement(marked_Zmod(5), marked_Z(), 5).saturated
    assert max_agreement(G_MARKED, G_MARKED, 2).saturated
    with pytest.raises(ValueError):
        max_agreement(marked_Z(), G_MARKED, 1)


def test_max_agreement_examples():
    assert max_agreement(marked_Zmod(7), marked_Z(), 10) == Agreement(6, False)
    assert max_agreement(marked_Z(), marked_Z(), 5) == Agreement(5, True)
    assert str(Agreement(5, True)) == ">= 5"
    assert max_agreement(marked_Zmod(2), marked_Zmod(3), 5) == Agreement(1, False)


@pytest.mark.parametrize(
    "m1, m2, r_max, calls",
    [
        (
            replace(builtin_group("E"), symmetries=(), shadow=()),
            replace(builtin_group("E"), symmetries=(), shadow=()),
            4,
            (63, 63),
        ),
        # one call per orbit of E's 16 letter automorphisms
        (
            replace(builtin_group("E"), shadow=()),
            replace(builtin_group("E"), shadow=()),
            4,
            (39, 39),
        ),
        # the shadow decides only the classes it does not prove non-trivial
        (
            replace(builtin_group("E"), symmetries=()),
            replace(builtin_group("E"), symmetries=()),
            4,
            (21, 21),
        ),
        (builtin_group("E"), builtin_group("E"), 4, (17, 17)),
        # Z/7 has no coordinate; Z's prunes every non-empty sphere
        (marked_Zmod(7), marked_Z(), 10, (7, 0)),
    ],
    ids=["E-E", "E-E-symmetric", "E-E-shadow", "E-E-symmetric-shadow", "Z7-Z"],
)
def test_max_agreement_tests_one_word_per_inverse_pair(m1, m2, r_max, calls):
    counting1 = CountingOracle(m1.oracle)
    counting2 = CountingOracle(m2.oracle)
    agreement = max_agreement(
        replace(m1, oracle=counting1), replace(m2, oracle=counting2), r_max
    )
    assert (counting1.calls, counting2.calls) == calls
    assert agreement == max_agreement(m1, m2, r_max)


def _agreement_pairs():
    g = builtin_group("G")
    e = builtin_group("E")
    return [
        (marked_Zmod(5), marked_Z(), 8),
        (marked_Zmod(7), marked_Z(), 10),
        (marked_Z(), marked_Z(), 5),
        (builtin_group("G"), g, 3),
        (e, condense(g, h2_handle(g.oracle)), 3),
        (e, replace(e, coordinates=(1, 5)), 3),
        (
            condense(g, h2_handle(g.oracle)),
            condense(g, orbit_witness(0, g.oracle)[1]),
            4,
        ),
    ]


def test_max_agreement_pruned_equals_full_walk():
    for m1, m2, r_max in _agreement_pairs():
        full = max_agreement(
            replace(m1, coordinates=()), replace(m2, coordinates=()), r_max
        )
        assert max_agreement(m1, m2, r_max) == full, (m1.name, m2.name)


def _brute_force_agreement(m1, m2, r_max):
    # compares every trivial word of each sphere, each word tested
    def sphere(m, r):
        alphabet = m.oracle.alphabet
        words = enumerate_sphere(alphabet, r, m.coordinates)
        return {w.letters for w in words if m.oracle.is_trivial(w)}

    for r in range(1, r_max + 1):
        if sphere(m1, r) != sphere(m2, r):
            return Agreement(r - 1, False)
    return Agreement(r_max, True)


def test_max_agreement_equals_brute_force():
    pairs = _agreement_pairs() + [
        (marked_Zmod(i), marked_Z(), 14) for i in range(1, 13)
    ]
    for m1, m2, r_max in pairs:
        expected = _brute_force_agreement(m1, m2, r_max)
        assert max_agreement(m1, m2, r_max) == expected, (m1.name, m2.name)


def test_cong_monotone():
    results = [
        max_agreement(marked_Zmod(4), marked_Z(), r).saturated for r in range(1, 6)
    ]
    # once False, stays False
    assert results == sorted(results, reverse=True)


# -- Chabauty ----------------------------------------------------------------


def test_chabauty_agree_examples():
    h = h2_handle(G)
    assert chabauty_agree(h, h, [w.letters for w in enumerate_ball(ABCHS, 1)])
    ha_point = orbit_witness(0, G)[1]  # <ha> = <h^2>^s
    assert not chabauty_agree(h, ha_point, [gw("h a").letters])


def test_chabauty_agree_alphabet_guard():
    whole_z = SubgroupHandle("all", lambda w: w, marked_Z().oracle.alphabet)
    with pytest.raises(ValueError):
        chabauty_agree(h2_handle(G), whole_z, [])


def test_orbit_agreement_streams_the_ball():
    # the radius-3 ball of G has 911 words; walking it instead of listing
    # it keeps the peak far below the 144 KiB that a list of the ball takes
    g = builtin_group("G")
    tracemalloc.start()
    try:
        orbit = orbit_agreement(3, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (orbit.ball_size, orbit.i, orbit.agree) == (911, 2, True)
    assert peak < 64 * 1024, peak


def test_orbit_subgroups_lie_in_kernel_of_g_coordinates():
    # h and a map to 0, so <h^2>, <ha>, A and their conjugates lie in the
    # kernel of G's coordinates: the pruned orbit walks are exact
    g = builtin_group("G")
    coordinates = g.coordinates
    assert ABCHS.index("h") not in coordinates
    assert ABCHS.index("a") not in coordinates
    for rho in range(4):
        orbit = orbit_agreement(rho, g)
        ball = [w.letters for w in enumerate_ball(ABCHS, rho)]
        assert orbit.i == escape_index(ball, g.oracle)
        assert orbit.agree == chabauty_agree(orbit.h_point, orbit.k_point, ball)
        assert orbit.ball_size == len(ball)


def first_difference(h, k, coordinates, r_max):
    """The first letters of G's ball of radius r_max, walked with G's
    coordinates, in one subgroup and not in the other, or None."""
    return next(
        (
            v for v in _walk(ABCHS, range(1, r_max + 1), coordinates)
            if (h.contains(v) is None) != (k.contains(v) is None)
        ),
        None,
    )


def test_conjugate_extensions_agree_past_the_conjugates():
    # ROADMAP item 23: when <h^2> and K = g <h^2> g^-1 agree on G's ball
    # of radius rho and first differ at w, of length rho + 1, f(<h^2>) and
    # f(K) agree to rho + 2, and [t, w], of length 2 rho + 4, is trivial
    # in exactly one of them; so their agreement radius lies in
    # [rho + 2, 2 rho + 3].  b s^-1 and b c^-1 s^-1 are the deepest
    # conjugators of length <= 3, at rho 3 and 4.
    g_group = builtin_group("G")
    h = h2_handle(g_group.oracle)
    f_h = condense(g_group, h)
    t = gen(f_h.oracle.alphabet, "t")
    pool = [w for w in enumerate_ball(ABCHS, 3) if w]
    conjugators = random.Random(23).sample(pool, 12)
    conjugators += [gw("b"), gw("b s^-1"), gw("b c^-1 s^-1")]
    rhos = {}
    for g in conjugators:
        k = conjugate_handle(g, h)
        w = first_difference(h, k, g_group.coordinates, 5)
        if w is None:
            continue  # K agrees with <h^2> through radius 5, as for g = b
        rho = len(w) - 1
        f_k = condense(g_group, k)
        assert max_agreement(f_h, f_k, rho + 2).saturated, render_word(g)
        separator = commutator(t, Word(t.alphabet, w))
        assert len(separator) == 2 * rho + 4
        trivial = f_h.oracle.is_trivial(separator), f_k.oracle.is_trivial(separator)
        assert trivial in ((True, False), (False, True)), render_word(g)
        rhos[render_word(g)] = rho
    assert "b" not in rhos and len(rhos) < len(conjugators) - 1
    assert set(rhos.values()) == {1, 3, 4}
    assert (rhos["b s^-1"], rhos["b c^-1 s^-1"]) == (3, 4)


def test_conjugate_handle_declares_only_symmetries_that_keep_its_subgroup():
    # each symmetry sigma that conjugate_handle(g, <h^2>) declares maps the
    # generator g h^2 g^-1 of K into K; sigma is an involution, so it maps
    # K onto itself.  b s^-1 and b c^-1 s^-1 are conjugators for which
    # b <-> c moves K, so it must not be declared for them
    h = h2_handle(G)
    h2 = gw("h^2")
    pool = [w for w in enumerate_ball(ABCHS, 3) if w]
    conjugators = random.Random(37).sample(pool, 40)
    conjugators += [gw("b s^-1"), gw("b c^-1 s^-1")]
    declared = 0
    for g in conjugators:
        k = conjugate_handle(g, h)
        generator = (g * h2 * invert(g)).letters
        for sigma in k.symmetries:
            image = tuple(sigma[x] for x in generator)
            assert k.contains(image) is not None, (render_word(g), sigma)
            declared += 1
    assert declared > len(conjugators)
    b_to_c = builtin_symmetries("G")[1]
    assert b_to_c not in conjugate_handle(gw("b s^-1"), h).symmetries
    moved = tuple(b_to_c[x] for x in (gw("b s^-1") * h2 * invert(gw("b s^-1"))).letters)
    assert conjugate_handle(gw("b s^-1"), h).contains(moved) is None


def test_chabauty_agree_radius2_witness():
    finite_set = [w.letters for w in enumerate_ball(ABCHS, 2)]
    i = escape_index(finite_set, G)
    _, k = orbit_witness(i, G)
    assert chabauty_agree(h2_handle(G), k, finite_set)


# -- condense ----------------------------------------------------------------


def reference_e():
    """E's oracle built directly over G, independent of condense."""
    h2 = h2_handle(G)
    return HnnOracle(G, h2.contains, h2.contains, "t")


def test_condense_g_h2_is_e():
    extension = condense(G_MARKED, h2_handle(G))
    assert extension.marking == ("a", "b", "c", "h", "s", "t")
    e = reference_e()
    for w in enumerate_ball(extension.oracle.alphabet, 3):
        assert extension.oracle.is_trivial(w) == e.is_trivial(
            Word(e.alphabet, w.letters)
        )


def test_e_relation_ball_pinned_and_built_by_condense():
    e = reference_e()
    ball = relation_ball(MarkedGroup("E", e), 4)
    assert ball.count == 65
    assert ball.fingerprint == (
        "5e6d3f74fd70bce345e9c616509fe00543474dca4c138890f0d338b11eb87a80"
    )
    condensed = builtin_group("E").oracle
    rng = random.Random(29)
    for _ in range(200):
        letters = tuple(
            2 * rng.randrange(e.alphabet.arity) + (rng.choice((1, -1)) < 0)
            for _ in range(rng.randrange(0, 13))
        )
        w = Word(e.alphabet, letters)
        assert e.is_trivial(w) == condensed.is_trivial(w), letters


def test_condense_distinguished_by_commutator():
    _, k = orbit_witness(1, G)
    ext_h = condense(G_MARKED, h2_handle(G))
    ext_k = condense(G_MARKED, k)
    z = parse_word("h a^b", ABCHS)
    comm = parse_word("[h a^b, t]", ext_h.oracle.alphabet)
    assert k(z) and not h2_handle(G)(z)
    assert ext_k.oracle.is_trivial(comm)
    assert not ext_h.oracle.is_trivial(comm)


def test_condense_z_whole_group_is_z_squared():
    z = marked_Z()
    whole = SubgroupHandle("Z", lambda w: w, z.oracle.alphabet)
    ext = condense(z, whole)
    assert ext.arity == 2

    class ZSquared(GroupOracle):
        alphabet = ext.oracle.alphabet

        def decide(self, letters):
            e1 = sum((-1) ** x for x in letters if x // 2 == 0)
            e2 = sum((-1) ** x for x in letters if x // 2 == 1)
            return e1 == 0 and e2 == 0

    reference = MarkedGroup("Z^2", ZSquared())
    assert max_agreement(ext, reference, 4) == Agreement(4, True)


def test_condense_keeps_budget():
    tight = g_oracle(50)
    assert condense(MarkedGroup("G", tight), h2_handle(tight)).oracle.budget == 50
    z = marked_Z()
    whole = SubgroupHandle("all", lambda w: w, z.oracle.alphabet)
    assert condense(z, whole).oracle.budget == DEFAULT_BUDGET


def test_condense_alphabet_guard():
    with pytest.raises(ValueError):
        condense(marked_Z(), h2_handle(G))


# -- escape index and orbit witness -----------------------------------------


def test_escape_index_examples():
    assert escape_index([gw("a").letters, gw("h").letters], G) == 1
    assert escape_index([], G) == 0
    assert escape_index(
        [gw(text).letters for text in ("a", "a^b", "a^(b^-1)", "h")], G
    ) == 2


def test_escape_index_ball_values():
    for r, i in ((1, 1), (2, 1), (3, 2)):
        assert escape_index([w.letters for w in enumerate_ball(ABCHS, r)], G) == i


def test_escape_index_walked_with_and_without_coordinates():
    # no word off the kernel of G's coordinates lies in A, so the pruned
    # walk, which orbit_agreement and exp_continuity take, loses nothing
    g = builtin_group("G")
    found = [
        escape_index(_walk(ABCHS, range(r + 1), coordinates), g.oracle)
        for r in range(5)
        for coordinates in (g.coordinates, ())
    ]
    assert found == [0, 0, 1, 1, 1, 1, 2, 2, 2, 2]


def test_escape_index_refuses_an_oracle_not_over_zxb():
    # E's reduced forms are over G's letters, whose s a_module would read
    # as h; the escape index refuses E's oracle, as h2_handle does
    e = builtin_group("E").oracle
    assert e.in_base(gw("s").letters) == [ABCHS.index("s") * 2]
    with pytest.raises(ValueError, match=r"extension of <h> x B"):
        escape_index([gw("s").letters], e)


def test_escape_index_positive_tie_break():
    # span {x} leaves both 1 and -1 escaping; i=0 wins, then +|i| before -|i|
    assert escape_index([gw("a^b").letters], G) == 0
    assert escape_index([gw("a").letters, gw("a^b a^(b^-1)").letters], G) == 1


def test_orbit_witness_claims():
    oracle = g_oracle()
    for i in (0, 1, 2, -1):
        g, k = orbit_witness(i, oracle)
        # g = (s b^i)^-1
        expected = invert(free_reduce(gw("s") * gw("b") ** i))
        assert g == expected
        # (h^2)^{s b^i} = h a^{b^i} in G
        lhs = free_reduce(parse_word(f"(h^2)^(s b^{i})", ABCHS))
        witness = free_reduce(parse_word(f"h a^(b^{i})", ABCHS))
        assert oracle.is_trivial(lhs * invert(witness))
        # the witness generates: in K, not in H2, and its square is h^2
        assert k(witness)
        assert not h2_handle(G)(witness)
        assert oracle.is_trivial(
            witness * witness * invert(gw("h^2"))
        )
    # the one builder of both words, letter for letter, over G's and E's alphabets
    for alphabet in (ABCHS, ABCHST):
        for i in range(-3, 4):
            assert escape_words(i, alphabet) == (
                free_reduce(parse_word(f"s b^{i}", alphabet)),
                free_reduce(parse_word(f"h a^(b^{i})", alphabet)),
            )


@pytest.mark.parametrize("order", [None, 1, 2, 5])
def test_cyclic_oracle_sums_exponents(order):
    oracle = CyclicOracle(order)
    rng = random.Random(7)
    for _ in range(300):
        letters = tuple(rng.randrange(2) for _ in range(rng.randrange(16)))
        exponent = letters.count(0) - letters.count(1)
        trivial = exponent == 0 if order is None else exponent % order == 0
        assert oracle.is_trivial(Word(oracle.alphabet, letters)) is trivial, letters
        assert oracle.decide(letters) is trivial, letters


def test_condense_z_decides_base_parts_with_no_word(monkeypatch):
    # the fold hands each base part's letters to CyclicOracle.decide; only
    # the input's free reduction, in ``words``, makes a Word
    z = marked_Z()
    ext = condense(z, SubgroupHandle("Z", lambda w: w, z.oracle.alphabet))
    alphabet = ext.oracle.alphabet
    trivial = parse_word("[x, t] x^3 t x^-3 t^-1", alphabet)
    other = parse_word("t x t^-1", alphabet)
    _refuse_words(monkeypatch, keep=(words,))
    assert ext.oracle.is_trivial(trivial)
    assert not ext.oracle.is_trivial(other)


def test_cyclic_oracle_validation():
    with pytest.raises(ValueError):
        CyclicOracle(0)
    with pytest.raises(ValueError):
        CyclicOracle(None, Alphabet(("x", "y")))
