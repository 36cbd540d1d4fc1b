"""Relator-rewriting traces: syntactic triviality certificates.

A trace is a sequence of rewrite steps applied to a word.  Each rule
replaces a subword lhs by rhs where lhs rhs^-1 is a cyclic rotation of a
relator or of its inverse; after each step the word is freely reduced, by
cancelling at the two seams of the splice.
A word with a trace ending in the empty word is trivial by construction.

The checker is deliberately independent of the Britton-reduction oracle:
it validates rules against the relator list and applications purely by
letter comparison.  Each step carries its position, emitted by the
trace's construction, so one replay checks the whole trace.  Letters are
compared by index, so every word must be over the presentation's
alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .presentations import Presentation, relator_class
from .words import Word, _word, check_alphabet, free_reduce, invert, render_word


class InvalidTraceError(ValueError):
    """A trace step or rule failed syntactic validation."""


@dataclass(frozen=True)
class RewriteRule:
    name: str
    lhs: Word
    rhs: Word


@dataclass(frozen=True)
class TraceStep:
    rule: int  # index into the rule list
    pos: int  # letter offset of the lhs occurrence


def validate_rules(
    rules: Sequence[RewriteRule], presentation: Presentation
) -> None:
    """Every rule must be over the presentation's alphabet and derived
    from one of its relators."""
    classes = {relator_class(rel) for rel in presentation.relators}
    for rule in rules:
        check_alphabet(rule.lhs, presentation.alphabet)
        check_alphabet(rule.rhs, presentation.alphabet)
        if relator_class(rule.lhs * invert(rule.rhs)) not in classes:
            raise InvalidTraceError(
                f"rule {rule.name} ({render_word(rule.lhs)} -> "
                f"{render_word(rule.rhs)}) is not relator-derived"
            )


def apply_step(w: Word, rule: RewriteRule, pos: int) -> Word:
    """Replace the occurrence of ``rule.lhs`` at ``pos`` by ``rule.rhs``,
    freely reduced.  ``w`` must be freely reduced, as ``run_trace`` keeps
    it: then only the rhs and its two seams can cancel, so only they are
    reduced, not the whole word."""
    check_alphabet(rule.lhs, w.alphabet)
    check_alphabet(rule.rhs, w.alphabet)
    lhs, letters = rule.lhs.letters, w.letters
    if not 0 <= pos <= len(letters) or letters[pos : pos + len(lhs)] != lhs:
        raise InvalidTraceError(
            f"rule {rule.name} does not match at position {pos} "
            f"of {render_word(w)}"
        )
    middle = _join(letters[:pos], free_reduce(rule.rhs).letters)
    return _word(w.alphabet, _join(middle, letters[pos + len(lhs) :]))


def _join(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """u v freely reduced, for freely reduced u and v: letters cancel only
    where they meet."""
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k] == v[k] ^ 1:
        k += 1
    return u[: len(u) - k] + v[k:]


def run_trace(
    start: Word,
    rules: Sequence[RewriteRule],
    steps: Sequence[TraceStep],
    presentation: Presentation,
) -> Word:
    """Validate and replay a trace; returns the final (reduced) word.

    A trace may have at most as many steps as its start word has letters.
    Each step does what ``apply_step`` does, on a word kept as two stacks:
    ``head``, the letters before a cursor, and ``tail``, those after it,
    last letter first.  The cursor moves to the step's position, the lhs
    is popped off ``tail`` and the rhs pushed onto ``head``, so a step
    costs its rule's length and the cursor's move, not a copy of the word.
    """
    if len(steps) > len(start):
        raise InvalidTraceError(
            f"trace has {len(steps)} steps (limit {len(start)}, the start "
            "word's length)"
        )
    check_alphabet(start, presentation.alphabet)
    validate_rules(rules, presentation)
    # each rule's lhs as ``tail`` holds it, and its rhs freely reduced
    moves = [(r.lhs.letters[::-1], free_reduce(r.rhs).letters) for r in rules]
    head, tail = list(free_reduce(start).letters), []
    for step in steps:
        pos, (lhs, rhs) = step.pos, moves[step.rule]
        while len(head) > pos >= 0:
            tail.append(head.pop())
        while len(head) < pos and tail:
            head.append(tail.pop())
        n = len(lhs)
        # the cursor stops short of pos only when pos is past either end
        if len(head) != pos or n > len(tail) or tuple(tail[len(tail) - n:]) != lhs:
            raise InvalidTraceError(
                f"rule {rules[step.rule].name} does not match at position {pos} "
                f"of {render_word(_word(start.alphabet, tuple(head + tail[::-1])))}"
            )
        del tail[len(tail) - n:]
        for y in rhs:
            if head and head[-1] == y ^ 1:
                head.pop()
            else:
                head.append(y)
        while head and tail and head[-1] == tail[-1] ^ 1:
            head.pop()
            tail.pop()
    return _word(start.alphabet, tuple(head + tail[::-1]))
