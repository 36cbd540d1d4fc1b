"""Relator-rewriting traces: syntactic triviality certificates.

A trace is a sequence of rewrite steps applied to a word.  Each rule
replaces a subword lhs by rhs where lhs rhs^-1 is a cyclic rotation of a
relator or of its inverse; after each step the word is freely reduced.
A word with a trace ending in the empty word is trivial by construction.

The checker is deliberately independent of the Britton-reduction oracle:
it validates rules against the relator list and applications purely by
letter comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .presentations import Presentation, relator_class
from .words import Word, free_reduce, invert, render_word


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
    """Every rule must be derived from a relator of the presentation."""
    classes = {relator_class(rel) for rel in presentation.relators}
    for rule in rules:
        if relator_class(rule.lhs * invert(rule.rhs)) not in classes:
            raise InvalidTraceError(
                f"rule {rule.name} ({render_word(rule.lhs)} -> "
                f"{render_word(rule.rhs)}) is not relator-derived"
            )


def apply_step(w: Word, rule: RewriteRule, pos: int) -> Word:
    lhs = rule.lhs.letters
    if w.letters[pos : pos + len(lhs)] != lhs:
        raise InvalidTraceError(
            f"rule {rule.name} does not match at position {pos} "
            f"of {render_word(w)}"
        )
    letters = w.letters[:pos] + rule.rhs.letters + w.letters[pos + len(lhs) :]
    return free_reduce(Word(w.alphabet, letters))


def run_trace(
    start: Word,
    rules: Sequence[RewriteRule],
    steps: Sequence[TraceStep],
    presentation: Presentation,
    *,
    max_steps: int = 50,
) -> Word:
    """Validate and replay a trace; returns the final (reduced) word."""
    if len(steps) > max_steps:
        raise InvalidTraceError(
            f"trace has {len(steps)} steps (limit {max_steps})"
        )
    validate_rules(rules, presentation)
    w = free_reduce(start)
    for step in steps:
        w = apply_step(w, rules[step.rule], step.pos)
    return w


def find_occurrence(w: Word, lhs: Word) -> int:
    """Position of the first occurrence of lhs in w, or -1."""
    pattern = lhs.letters
    n = len(pattern)
    for pos in range(len(w.letters) - n + 1):
        if w.letters[pos : pos + n] == pattern:
            return pos
    return -1


def build_trace(
    start: Word,
    rules: Sequence[RewriteRule],
    schedule: Sequence[int],
) -> list[TraceStep]:
    """Turn a rule schedule into positioned steps by replaying it.

    Each scheduled rule is applied at the first occurrence of its lhs;
    fails if an occurrence is missing.
    """
    steps: list[TraceStep] = []
    w = free_reduce(start)
    for rule_idx in schedule:
        rule = rules[rule_idx]
        pos = find_occurrence(w, rule.lhs)
        if pos < 0:
            raise InvalidTraceError(
                f"no occurrence of {render_word(rule.lhs)} in "
                f"{render_word(w)} while building trace"
            )
        steps.append(TraceStep(rule_idx, pos))
        w = apply_step(w, rule, pos)
    return steps
