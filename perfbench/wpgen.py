"""Seeded generator for the ``wp-long`` word stream.

Every word is a product of conjugates of E's relators (or their inverses),
so it is trivial in E by construction.  Every second word gets one trailing
generator letter x, so it equals x in E, and x is non-trivial: b, c, s and
t survive in the abelianization of E, which is free abelian on them, and a
and h are non-trivial in the base group <h> x B, which embeds in E through
the two HNN extensions.  Both labels come from this construction alone,
never from the program under test, and only the rendered text reaches the
program.
"""

from __future__ import annotations

import random

NAMES = ("a", "b", "c", "h", "s", "t")
STABLE = (NAMES.index("s"), NAMES.index("t"))

# The defining relators of E, written out here so that the labels do not
# depend on the presentation code under test.
RELATOR_TEXT = (
    "a a",
    "a^-1 b^-1 a^-1 b a b^-1 a b",  # [a, a^b]
    "b^-1 c^-1 b c",  # [b, c]
    "c^-1 a c b^-1 a^-1 b a^-1",  # a^c = a a^b
    "h^-1 a^-1 h a",
    "h^-1 b^-1 h b",
    "h^-1 c^-1 h c",
    "s^-1 h h s a^-1 h^-1",  # (h^2)^s = h a
    "t^-1 h h t h^-1 h^-1",  # (h^2)^t = h^2
)

CONJUGATES_PER_WORD = 30
MAX_CONJUGATOR = 40
STREAM_WORDS = 200


def parse_letters(text: str) -> tuple[tuple[int, int], ...]:
    """Letters of a space-separated word such as ``a b^-1``."""
    out = []
    for token in text.split():
        if token.endswith("^-1"):
            out.append((NAMES.index(token[:-3]), -1))
        else:
            out.append((NAMES.index(token), 1))
    return tuple(out)


RELATORS = tuple(parse_letters(text) for text in RELATOR_TEXT)


def inverse(letters):
    return tuple((idx, -sign) for idx, sign in reversed(letters))


def free_reduce(letters):
    stack: list[tuple[int, int]] = []
    for idx, sign in letters:
        if stack and stack[-1] == (idx, -sign):
            stack.pop()
        else:
            stack.append((idx, sign))
    return stack


def render(letters) -> str:
    """The word grammar's plain form: ``name`` or ``name^-1``, spaced."""
    return " ".join(NAMES[i] if s > 0 else NAMES[i] + "^-1" for i, s in letters)


def _random_letter(rng: random.Random) -> tuple[int, int]:
    return (rng.randrange(len(NAMES)), rng.choice((1, -1)))


def _reduced_word(rng: random.Random, length: int):
    letters: list[tuple[int, int]] = []
    while len(letters) < length:
        letter = _random_letter(rng)
        if letters and letters[-1] == (letter[0], -letter[1]):
            continue
        letters.append(letter)
    return tuple(letters)


def make_word(rng: random.Random, trailing: bool):
    letters: list[tuple[int, int]] = []
    for _ in range(CONJUGATES_PER_WORD):
        g = _reduced_word(rng, rng.randint(0, MAX_CONJUGATOR))
        rel = rng.choice(RELATORS)
        if rng.random() < 0.5:
            rel = inverse(rel)
        letters.extend(inverse(g) + rel + g)
    if trailing:
        letters.append(_random_letter(rng))
    return tuple(letters)


def make_stream(seed: int, count: int = STREAM_WORDS):
    """``count`` (text, trivial) pairs; the same seed gives the same stream."""
    rng = random.Random(seed)
    stream = []
    for k in range(count):
        trailing = k % 2 == 1
        stream.append((render(make_word(rng, trailing)), not trailing))
    return stream


def stream_stats(stream) -> dict:
    """Mean and max length, and max stable letters after free reduction."""
    lengths = []
    stable = []
    for text, _ in stream:
        letters = parse_letters(text)
        lengths.append(len(letters))
        stable.append(sum(1 for idx, _ in free_reduce(letters) if idx in STABLE))
    return {
        "words": len(stream),
        "mean_letters": round(sum(lengths) / len(lengths), 1),
        "max_letters": max(lengths),
        "max_stable": max(stable),
    }
