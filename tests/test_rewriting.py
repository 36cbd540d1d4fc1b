import pytest
from hypothesis import given
from hypothesis import strategies as st

from markedgroups.experiments import (
    epsilon_kernel_certificate,
    epsilon_kernel_word,
    epsilon_substitution,
)
from markedgroups.presentations import ABCHST, builtin
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
