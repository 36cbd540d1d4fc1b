"""Free-group words over named alphabets.

Words are stored as tuples of (generator index, sign) pairs so that
generators can carry multi-character names and inversion is O(1) per
letter.  All values are immutable; all operations are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

Letter = tuple[int, int]  # (generator index, sign in {+1, -1})


class WordSyntaxError(ValueError):
    """Raised on malformed word or presentation text."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)


class BudgetExceededError(RuntimeError):
    """A word grew past the configured letter budget, in parsing or reduction."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered tuple of distinct generator names."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate generator names in {self.names}")
        for name in self.names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid generator name {name!r}")

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"generator {name!r} not in alphabet {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def extend(self, name: str) -> "Alphabet":
        if name in self.names:
            raise ValueError(f"generator {name!r} already in alphabet {self.names}")
        return Alphabet(self.names + (name,))


@dataclass(frozen=True)
class Word:
    """A finite sequence of signed generator letters over an alphabet.

    The sequence is not necessarily freely reduced; use :func:`free_reduce`.
    ``u * v`` concatenates and freely reduces, ``~w`` inverts, ``w ** k``
    raises to an integer power (freely reduced).
    """

    alphabet: Alphabet
    letters: tuple[Letter, ...]

    def __post_init__(self) -> None:
        n = self.alphabet.arity
        for idx, sign in self.letters:
            if not 0 <= idx < n:
                raise ValueError(f"letter index {idx} out of range for arity {n}")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign}")

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise ValueError("cannot multiply words over different alphabets")
        return free_reduce(Word(self.alphabet, self.letters + other.letters))

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return invert(self) ** (-k)
        result = Word(self.alphabet, self.letters * k)
        return free_reduce(result)

    def __str__(self) -> str:
        return render_word(self)

    def is_reduced(self) -> bool:
        for (i1, s1), (i2, s2) in zip(self.letters, self.letters[1:]):
            if i1 == i2 and s1 == -s2:
                return False
        return True


def identity(alphabet: Alphabet) -> Word:
    return Word(alphabet, ())


def gen(alphabet: Alphabet, name: str, sign: int = 1) -> Word:
    return Word(alphabet, ((alphabet.index(name), sign),))


def concat(*ws: Word) -> Word:
    """Concatenate without free reduction."""
    if not ws:
        raise ValueError("concat needs at least one word")
    alphabet = ws[0].alphabet
    letters: list[Letter] = []
    for w in ws:
        if w.alphabet != alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
        letters.extend(w.letters)
    return Word(alphabet, tuple(letters))


def free_reduce(w: Word) -> Word:
    """The unique freely reduced word equal to w in the free group."""
    stack: list[Letter] = []
    for idx, sign in w.letters:
        if stack and stack[-1][0] == idx and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((idx, sign))
    if len(stack) == len(w.letters):
        return w
    return Word(w.alphabet, tuple(stack))


def invert(w: Word) -> Word:
    return Word(w.alphabet, tuple((idx, -sign) for idx, sign in reversed(w.letters)))


def conjugate(x: Word, y: Word) -> Word:
    """x^y = y^-1 x y, freely reduced."""
    return free_reduce(concat(invert(y), x, y))


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v, freely reduced."""
    return free_reduce(concat(invert(u), invert(v), u, v))


def check_alphabet(w: Word, alphabet: Alphabet) -> None:
    """Refuse a word over another alphabet: letters are read by index, so
    a permuted or wider alphabet would silently mean a different word."""
    if w.alphabet is not alphabet and w.alphabet != alphabet:
        raise ValueError(
            f"word over {w.alphabet.names} given to a group over {alphabet.names}"
        )


def check_budget(length: int, budget: int | None, line: int | None = None) -> None:
    """Refuse a word of more than ``budget`` letters; None means no limit."""
    if budget is not None and length > budget:
        where = "" if line is None else f" (line {line})"
        raise BudgetExceededError(
            f"word expands to {length} letters (budget {budget}){where}"
        )


def transfer(w: Word, alphabet: Alphabet) -> Word:
    """The same letter sequence read over another alphabet of equal arity."""
    if alphabet.arity != w.alphabet.arity:
        raise ValueError("alphabet arity mismatch")
    return Word(alphabet, w.letters)


# Letter order for enumeration and sorting: index ascending, +1 before -1.
def _letter_key(letter: Letter) -> tuple[int, int]:
    idx, sign = letter
    return (idx, 0 if sign > 0 else 1)


def sort_key(w: Word) -> tuple[int, tuple[tuple[int, int], ...]]:
    return (len(w.letters), tuple(_letter_key(let) for let in w.letters))


def render_word(w: Word) -> str:
    if not w.letters:
        return "1"
    parts = []
    for idx, sign in w.letters:
        name = w.alphabet.names[idx]
        parts.append(name if sign > 0 else name + "^-1")
    return " ".join(parts)


def render_canonical(w: Word) -> str:
    """Name-independent rendering over the basis x1..xn of the free group."""
    if not w.letters:
        return "1"
    parts = []
    for idx, sign in w.letters:
        parts.append(f"x{idx + 1}" if sign > 0 else f"x{idx + 1}^-1")
    return " ".join(parts)


def ball_size(n: int, r: int) -> int:
    """Number of freely reduced words of length <= r over n generators."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    total = 1
    for k in range(1, r + 1):
        total += 2 * n * (2 * n - 1) ** (k - 1)
    return total


def _sphere_from(
    alphabet: Alphabet, length: int, prefix: list[Letter]
) -> Iterator[Word]:
    if length == 0:
        yield Word(alphabet, tuple(prefix))
        return
    last = prefix[-1] if prefix else None
    for idx in range(alphabet.arity):
        for sign in (1, -1):
            if last is not None and last[0] == idx and last[1] == -sign:
                continue
            prefix.append((idx, sign))
            yield from _sphere_from(alphabet, length - 1, prefix)
            prefix.pop()


def enumerate_sphere(alphabet: Alphabet, length: int) -> Iterator[Word]:
    """Freely reduced words of exactly the given length, in lex order."""
    if length < 0:
        raise ValueError("length must be non-negative")
    yield from _sphere_from(alphabet, length, [])


def enumerate_ball(alphabet: Alphabet, r: int) -> Iterator[Word]:
    """Every freely reduced word of length <= r, once, in length-lex order."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    for length in range(r + 1):
        yield from _sphere_from(alphabet, length, [])


@dataclass(frozen=True)
class Substitution:
    """A homomorphism of free groups, given by the images of the source
    generators."""

    source: Alphabet
    target: Alphabet
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.source.arity:
            raise ValueError("substitution must be total on the source alphabet")
        for img in self.images:
            if img.alphabet != self.target:
                raise ValueError("substitution image over wrong alphabet")

    def __call__(self, w: Word) -> Word:
        return substitute(w, self)


def substitute(w: Word, sigma: Substitution) -> Word:
    """Homomorphic image of w under sigma, freely reduced."""
    if w.alphabet != sigma.source:
        raise ValueError("word not over the substitution's source alphabet")
    letters: list[Letter] = []
    for idx, sign in w.letters:
        img = sigma.images[idx]
        if sign > 0:
            letters.extend(img.letters)
        else:
            letters.extend((i, -s) for i, s in reversed(img.letters))
    return free_reduce(Word(sigma.target, tuple(letters)))


# ---------------------------------------------------------------------------
# Word grammar.
#
# Whitespace-separated atoms with sugar:
#   NAME         a single generator
#   NAME^INT     an integer power (INT may be negative)
#   u^v          conjugation y^-1 x y; u parenthesized when composite,
#                e.g. "(h^2)^s" or "t^(s b)"
#   [u, v]       commutator u^-1 v^-1 u v
#   1            the empty word
# With a letter budget, no power, conjugation, commutator or sequence may
# build a longer word; powers are measured before they are expanded.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<int>-?\d+)"
    r"|(?P<sym>[\^\(\)\[\],]))"
)


class _Tokens:
    def __init__(self, text: str, line: int | None = None, budget: int | None = None):
        self.text = text
        self.line = line
        self.budget = budget
        self.pos = 0
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise WordSyntaxError(
                        f"unexpected character {text[pos:].strip()[0]!r}",
                        line,
                        pos + 1,
                    )
                break
            if m.lastgroup is not None:
                self.items.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()

    def peek(self) -> tuple[str, str, int] | None:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self) -> tuple[str, str, int]:
        item = self.peek()
        if item is None:
            raise WordSyntaxError("unexpected end of word", self.line)
        self.pos += 1
        return item

    def check(self, length: int) -> None:
        check_budget(length, self.budget, self.line)

    def expect(self, value: str) -> None:
        item = self.next()
        if item[1] != value:
            raise WordSyntaxError(
                f"expected {value!r}, got {item[1]!r}", self.line, item[2] + 1
            )


def parse_word(
    text: str, alphabet: Alphabet, line: int | None = None, *, budget: int | None = None
) -> Word:
    """Parse the word grammar, expanding sugar into plain letter sequences."""
    tokens = _Tokens(text, line, budget)
    w = _parse_sequence(tokens, alphabet, stop=())
    extra = tokens.peek()
    if extra is not None:
        raise WordSyntaxError(
            f"unexpected token {extra[1]!r}", line, extra[2] + 1
        )
    return w


def _parse_sequence(tokens: _Tokens, alphabet: Alphabet, stop: tuple[str, ...]) -> Word:
    letters: list[Letter] = []
    while True:
        item = tokens.peek()
        if item is None or (item[0] == "sym" and item[1] in stop):
            break
        letters.extend(_parse_item(tokens, alphabet).letters)
        tokens.check(len(letters))
    return Word(alphabet, tuple(letters))


def _power_length(w: Word, k: int) -> int:
    """Length of w^k = u v^k u^-1 for freely reduced w = u v u^-1, v cyclically reduced."""
    n, u, letters = len(w), 0, w.letters
    while 2 * u + 1 < n and letters[u] == (letters[-1 - u][0], -letters[-1 - u][1]):
        u += 1
    return 2 * u + abs(k) * (n - 2 * u) if k else 0


def _parse_item(tokens: _Tokens, alphabet: Alphabet) -> Word:
    base = _parse_atom(tokens, alphabet)
    while True:
        item = tokens.peek()
        if item is None or item[1] != "^":
            return base
        tokens.next()
        exp = tokens.peek()
        if exp is None:
            raise WordSyntaxError("dangling '^'", tokens.line)
        if exp[0] == "int":
            tokens.next()
            k = int(exp[1])
            base = free_reduce(base)
            tokens.check(_power_length(base, k))
            base = base ** k
        else:
            conjugator = _parse_atom(tokens, alphabet)
            base = free_reduce(concat(invert(conjugator), base, conjugator))
            tokens.check(len(base))


def _parse_atom(tokens: _Tokens, alphabet: Alphabet) -> Word:
    kind, value, col = tokens.next()
    if kind == "name":
        try:
            return gen(alphabet, value)
        except KeyError:
            raise WordSyntaxError(
                f"unknown generator {value!r}", tokens.line, col + 1
            ) from None
    if kind == "int" and value == "1":
        return identity(alphabet)
    if kind == "sym" and value == "(":
        inner = _parse_sequence(tokens, alphabet, stop=(")",))
        tokens.expect(")")
        return inner
    if kind == "sym" and value == "[":
        u = _parse_sequence(tokens, alphabet, stop=(",",))
        tokens.expect(",")
        v = _parse_sequence(tokens, alphabet, stop=("]",))
        tokens.expect("]")
        w = commutator(u, v)
        tokens.check(len(w))
        return w
    raise WordSyntaxError(f"unexpected token {value!r}", tokens.line, col + 1)
