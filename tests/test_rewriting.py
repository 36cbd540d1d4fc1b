import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from markedgroups.experiments import (
    epsilon_kernel_certificate,
    epsilon_kernel_word,
    epsilon_substitution,
)
from markedgroups.marked import builtin_group
from markedgroups.presentations import ABCHST, builtin, relator_class
from markedgroups.rewriting import (
    InvalidTraceError,
    RewriteRule,
    TraceStep,
    apply_step,
    run_trace,
    validate_rules,
)
from markedgroups.words import (
    Alphabet,
    Word,
    concat,
    free_reduce,
    invert_letters,
    parse_word,
    render_word,
    rotations,
    substitute,
)


E_PRES = builtin("E")


def ew(text):
    return parse_word(text, ABCHST)


def test_validate_rules_accepts_relator_derived():
    # h a -> s^-1 h^2 s comes from the relator (h^2)^s = h a
    rule = RewriteRule("fold-pair", ew("h a"), ew("s^-1 h^2 s"))
    validate_rules([rule], E_PRES)
    # commuting rule from [h, b]
    swap = RewriteRule("swap", ew("b h"), ew("h b"))
    validate_rules([swap], E_PRES)


def test_validate_rules_rejects_non_relator():
    bogus = RewriteRule("bogus", ew("h a"), ew("h^2"))
    with pytest.raises(InvalidTraceError):
        validate_rules([bogus], E_PRES)
    # correct words but wrong orientation of a non-symmetric relator
    wrong = RewriteRule("wrong", ew("h a"), ew("s h^2 s^-1"))
    with pytest.raises(InvalidTraceError):
        validate_rules([wrong], E_PRES)


def test_apply_step_checks_position():
    rule = RewriteRule("fold-pair", ew("h a"), ew("s^-1 h^2 s"))
    w = ew("b h a")
    out = apply_step(w, rule, 1)
    assert render_word(out) == "b s^-1 h h s"
    with pytest.raises(InvalidTraceError):
        apply_step(w, rule, 0)
    with pytest.raises(InvalidTraceError):
        apply_step(w, rule, 2)
    # a negative position is not read from the end: h a is at -3 of b h a c
    with pytest.raises(InvalidTraceError):
        apply_step(ew("b h a c"), rule, -3)


def test_empty_lhs_step_is_refused_past_either_end():
    # 1 -> a a matches at every position of b c, 0 to 2, and at no other
    b_pres = builtin("B")
    bc, one, aa = (parse_word(text, b_pres.alphabet) for text in ("b c", "1", "a a"))
    rule = RewriteRule("square", one, aa)
    validate_rules([rule], b_pres)
    assert render_word(apply_step(bc, rule, 2)) == "b c a a"
    assert render_word(run_trace(bc, [rule], [TraceStep(0, 2)], b_pres)) == "b c a a"
    for pos in (3, 99, -1):
        message = f"rule square does not match at position {pos} of b c"
        with pytest.raises(InvalidTraceError, match=message):
            apply_step(bc, rule, pos)
        with pytest.raises(InvalidTraceError, match=message):
            run_trace(bc, [rule], [TraceStep(0, pos)], b_pres)


def test_apply_step_freely_reduces():
    rule = RewriteRule("swap", ew("b h"), ew("h b"))
    w = ew("h^-1 b h b^-1")
    out = apply_step(w, rule, 1)
    assert len(out) == 0
    # a rule's rhs need not be reduced: h a a^-1 b is h b
    loose = RewriteRule("swap", ew("b h"), ew("h a a^-1 b"))
    validate_rules([loose], E_PRES)
    assert render_word(apply_step(ew("a^-1 b h a"), loose, 1)) == "a^-1 h b a"


def test_run_trace_step_limit():
    # a trace may have at most as many steps as its start word has letters
    rules = [
        RewriteRule("swap", ew("b h"), ew("h b")),
        RewriteRule("swap-back", ew("h b"), ew("b h")),
    ]
    steps = [TraceStep(0, 0), TraceStep(1, 0), TraceStep(0, 0)]
    assert render_word(run_trace(ew("b h a"), rules, steps, E_PRES)) == "h b a"
    with pytest.raises(InvalidTraceError):
        run_trace(ew("b h"), rules, steps, E_PRES)


# Every rule lhs -> rhs with lhs rhs^-1 a rotation of a relator of E or of
# its inverse, rhs possibly empty.
_RULES = [
    RewriteRule("r", Word(ABCHST, rot[:k]), Word(ABCHST, invert_letters(rot[k:])))
    for rel in E_PRES.relators
    for rot in sorted(rotations(rel.letters))
    for k in range(1, len(rot) + 1)
]
_LETTERS = st.lists(st.integers(0, 2 * ABCHST.arity - 1), max_size=8)


@given(st.sampled_from(_RULES), _LETTERS, _LETTERS, st.data())
def test_apply_step_equals_reduced_splice(rule, p, q, data):
    # u ends and v starts with part of rhs^-1, so the splice cancels at its
    # seams, and at times u meets v
    validate_rules([rule], E_PRES)
    lhs, rhs = rule.lhs.letters, rule.rhs.letters
    j = data.draw(st.integers(0, len(rhs)))
    k = data.draw(st.integers(0, len(rhs) - j))
    u = list(free_reduce(Word(ABCHST, tuple(p) + invert_letters(rhs[:j]))).letters)
    v = list(free_reduce(Word(ABCHST, invert_letters(rhs[len(rhs) - k :]) + tuple(q))).letters)
    while u and u[-1] == lhs[0] ^ 1:
        u.pop()
    while v and v[0] == lhs[-1] ^ 1:
        v.pop(0)
    w = Word(ABCHST, (*u, *lhs, *v))
    assert w.is_reduced()
    naive = free_reduce(concat(Word(ABCHST, tuple(u)), rule.rhs, Word(ABCHST, tuple(v))))
    assert apply_step(w, rule, len(u)) == naive


def replay_by_steps(start, rules, steps):
    """The reference replay: apply_step once per step, on a whole word."""
    w = free_reduce(start)
    for step in steps:
        w = apply_step(w, rules[step.rule], step.pos)
    return w


@st.composite
def traces(draw):
    """A start word over E's alphabet, up to four relator-derived rules, an
    empty lhs among them at times, and a valid trace: each step is a rule
    at a position where a plain search finds its lhs.  The start word
    strings random letters and rules' lhs together, so that rules match."""
    pool = _RULES + [RewriteRule("r", Word(ABCHST, ()), rel) for rel in E_PRES.relators]
    rules = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    pieces = st.one_of(
        st.integers(0, 2 * ABCHST.arity - 1).map(lambda x: (x,)),
        st.sampled_from(rules).map(lambda rule: rule.lhs.letters),
    )
    start = Word(ABCHST, sum(draw(st.lists(pieces, max_size=8)), ()))
    w, steps = free_reduce(start), []
    for _ in range(draw(st.integers(min(len(start), 1), len(start)))):
        matches = [
            TraceStep(i, pos)
            for i, rule in enumerate(rules)
            for pos in range(len(w) + 1)
            if w.letters[pos : pos + len(rule.lhs)] == rule.lhs.letters
        ]
        if not matches:
            break
        steps.append(draw(st.sampled_from(matches)))
        w = apply_step(w, rules[steps[-1].rule], steps[-1].pos)
    return start, rules, steps


@given(traces())
def test_run_trace_equals_repeated_apply_step(trace):
    start, rules, steps = trace
    assert run_trace(start, rules, steps, E_PRES) == replay_by_steps(start, rules, steps)


@given(traces(), st.data())
def test_run_trace_refuses_a_step_as_apply_step_does(trace, data):
    # one more step at any position, past either end included: the replay
    # returns what apply_step returns, or raises its message
    start, rules, steps = trace
    assume(start)
    steps = steps[: len(start) - 1]  # room for one more under the step limit
    w = replay_by_steps(start, rules, steps)
    rule = data.draw(st.integers(0, len(rules) - 1))
    steps = steps + [TraceStep(rule, data.draw(st.integers(-2, len(w) + 2)))]
    try:
        expected = apply_step(w, rules[rule], steps[-1].pos)
    except InvalidTraceError as exc:
        with pytest.raises(InvalidTraceError) as got:
            run_trace(start, rules, steps, E_PRES)
        assert str(got.value) == str(exc)
    else:
        assert run_trace(start, rules, steps, E_PRES) == expected


# b, a, c: the letters of "b b" are those of B's "a a", a false identity
BAC = Alphabet(("b", "a", "c"))


def test_run_trace_refuses_foreign_alphabet():
    bb = parse_word("b b", BAC)
    rule = RewriteRule("r", bb, parse_word("1", BAC))
    with pytest.raises(ValueError):
        run_trace(bb, [rule], [TraceStep(0, 0)], builtin("B"))


def test_validate_rules_refuses_foreign_alphabet():
    b_pres = builtin("B")
    rule = RewriteRule("r", parse_word("b b", BAC), parse_word("1", BAC))
    with pytest.raises(ValueError):
        validate_rules([rule], b_pres)


def test_apply_step_refuses_foreign_alphabet():
    # the letters of h a over ABCHST, read over a permuted alphabet
    permuted = Alphabet(("b", "a", "c", "h", "s", "t"))
    rule = RewriteRule(
        "fold-pair", parse_word("h b", permuted), parse_word("s^-1 h^2 s", permuted)
    )
    with pytest.raises(ValueError):
        apply_step(ew("b h a"), rule, 1)


def leftmost(w, lhs):
    """The first position of lhs in w, or -1: a plain search, the
    reference for the positions a certificate emits."""
    n = len(lhs.letters)
    for pos in range(len(w.letters) - n + 1):
        if w.letters[pos : pos + n] == lhs.letters:
            return pos
    return -1


@pytest.mark.parametrize("i", range(-12, 13))
def test_certificate_positions_are_leftmost(i):
    start, rules, steps = epsilon_kernel_certificate(i)
    w = start
    for step in steps:
        rule = rules[step.rule]
        assert step.pos == leftmost(w, rule.lhs)
        w = apply_step(w, rule, step.pos)
    assert len(w) == 0


@pytest.mark.parametrize("i", [0, 1, 2, 3, -1, -2])
def test_kernel_certificate_replays_to_identity(i):
    start, rules, steps = epsilon_kernel_certificate(i)
    # start is the substituted kernel word, computed independently here
    expected = substitute(epsilon_kernel_word(i), epsilon_substitution(i))
    assert start.letters == expected.letters
    assert len(steps) == 2 * abs(i) + 3
    final = run_trace(start, rules, steps, E_PRES)
    assert len(final) == 0


def test_kernel_certificate_rules_are_relator_derived():
    for i in (2, -2):
        _, rules, _ = epsilon_kernel_certificate(i)
        validate_rules(rules, E_PRES)


def test_trace_positions_are_exact():
    # shifting any recorded position must break the replay
    start, rules, steps = epsilon_kernel_certificate(1)
    tweaked = list(steps)
    tweaked[0] = TraceStep(steps[0].rule, steps[0].pos + 1)
    with pytest.raises(InvalidTraceError):
        run_trace(start, rules, tweaked, E_PRES)


# -- the built-in groups' letter symmetries ---------------------------------

# A trace for each relator image that is not a relator up to rotation and
# inversion: rules "lhs -> rhs", each from a relator, with their positions.
SYMMETRY_TRACES = {
    # a -> a^-1 on a^c = a a^b: each a flipped back by a^2, then the relator
    "c^-1 a^-1 c b^-1 a b a": [
        ("a^-1", "a", 1),
        ("a", "a^-1", 4),
        ("a", "a^-1", 6),
        ("c^-1 a c b^-1 a^-1 b a^-1", "1", 0),
    ],
    # b <-> c on [a, a^b], which reads [a, a^c]: a^c = a a^b twice
    "a^-1 c^-1 a^-1 c a c^-1 a c": [
        ("c^-1 a^-1 c", "b^-1 a^-1 b a^-1", 1),
        ("c^-1 a c", "a b^-1 a b", 4),
        ("a^-1 b^-1 a^-1 b a b^-1 a b", "1", 0),
    ],
    # b <-> c on a^c = a a^b, which reads a^b = a a^c
    "b^-1 a b c^-1 a^-1 c a^-1": [
        ("c^-1 a^-1 c", "b^-1 a^-1 b a^-1", 3),
        ("a^-1 a^-1", "1", 0),
    ],
    # a -> a^-1 on (h^2)^s = h a: a flipped back, then the relator
    "s^-1 h h s a h^-1": [
        ("a", "a^-1", 4),
        ("s^-1 h h s a^-1 h^-1", "1", 0),
    ],
    # h -> h^-1 on (h^2)^s = h a: (h^-2)^s = (h a)^-1, [h, a] and a^2
    "s^-1 h^-1 h^-1 s a^-1 h": [
        ("s^-1 h^-1 h^-1 s", "a^-1 h^-1", 0),
        ("h^-1 a^-1", "a^-1 h^-1", 1),
        ("a^-1 a^-1", "1", 0),
    ],
}


@pytest.mark.parametrize("name", ["B", "ZxB", "G", "E"])
def test_builtin_symmetries_map_relators_to_trivial_words(name):
    # independent of the oracle: each relator's image under each generating
    # involution is a relator up to rotation and inversion, or replays to
    # the empty word by a trace written above
    pres = builtin(name)
    classes = {relator_class(rel) for rel in pres.relators}
    symmetries = builtin_group(name).symmetries
    assert len(symmetries) == {"B": 2, "ZxB": 3, "G": 3, "E": 4}[name]
    traced = set()
    for sigma in symmetries:
        for rel in pres.relators:
            letters = tuple(map(sigma.__getitem__, rel.letters))
            image = free_reduce(Word(pres.alphabet, letters))
            if relator_class(image) in classes:
                continue
            trace = SYMMETRY_TRACES[render_word(image)]
            rules = [
                RewriteRule(
                    f"{lhs} -> {rhs}",
                    parse_word(lhs, pres.alphabet),
                    parse_word(rhs, pres.alphabet),
                )
                for lhs, rhs, _ in trace
            ]
            steps = [TraceStep(i, pos) for i, (_, _, pos) in enumerate(trace)]
            assert len(run_trace(image, rules, steps, pres)) == 0, render_word(image)
            traced.add(render_word(image))
    assert traced <= set(SYMMETRY_TRACES)
    if name in ("G", "E"):
        assert traced == set(SYMMETRY_TRACES)
