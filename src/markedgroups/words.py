"""Free-group words over named alphabets.

A letter is one int: 2*i for generator i and 2*i + 1 for its inverse,
so ``x ^ 1`` inverts a letter, ``x >> 1`` is its generator index, and
int order is the enumeration order (index ascending, each generator
before its inverse).  Names live only in the alphabet, so generators can
carry multi-character names.  All values are immutable; all operations
are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

Letter = int  # 2*i for generator i, 2*i + 1 for its inverse

DEFAULT_BUDGET = 10_000  # letters any one word may have, parsed or reduced


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

    @cached_property
    def spellings(self) -> tuple[str, ...]:
        """The text of each letter, by letter: ``name`` and ``name^-1``."""
        return tuple(s for name in self.names for s in (name, name + "^-1"))

    @cached_property
    def _letter_of(self) -> dict[str, Letter]:
        """The letter of each spelling, for the parser."""
        return {s: x for x, s in enumerate(self.spellings)}

    @cached_property
    def canonical_spellings(self) -> tuple[str, ...]:
        """The text of each letter over the basis x1..xn."""
        return tuple(
            s for i in range(1, self.arity + 1) for s in (f"x{i}", f"x{i}^-1")
        )


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
        bound = 2 * self.alphabet.arity
        for x in self.letters:
            if type(x) is not int or not 0 <= x < bound:
                raise ValueError(
                    f"letter {x!r} is not an int in [0, {bound}) for arity "
                    f"{self.alphabet.arity}"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise ValueError("cannot multiply words over different alphabets")
        letters = _reduce_letters(self.letters + other.letters)
        return _word(self.alphabet, tuple(letters))

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, k: int) -> "Word":
        letters = _reduce_letters(self.letters)
        if not letters:
            return _word(self.alphabet, ())  # [] * k overflows past sys.maxsize
        # no budget here: a caller that needs one measures the power first
        return _word(self.alphabet, tuple(_power(letters, k, lambda length: None)))

    def __str__(self) -> str:
        return render_word(self)

    def is_reduced(self) -> bool:
        return all(x ^ y != 1 for x, y in zip(self.letters, self.letters[1:]))


def _word(alphabet: Alphabet, letters: tuple[Letter, ...]) -> Word:
    """A Word built without checking its letters, for letters known to be
    in range: taken from checked words over the same alphabet, or made
    from its generator indices."""
    w = object.__new__(Word)
    object.__setattr__(w, "alphabet", alphabet)
    object.__setattr__(w, "letters", letters)
    return w


def gen(alphabet: Alphabet, name: str) -> Word:
    return _word(alphabet, (2 * alphabet.index(name),))


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
    return _word(alphabet, tuple(letters))


def _reduce_letters(letters: Sequence[Letter]) -> list[Letter]:
    """Freely reduce a letter sequence: one pass with a stack."""
    stack: list[Letter] = []
    for x in letters:
        if stack and stack[-1] == x ^ 1:
            stack.pop()
        else:
            stack.append(x)
    return stack


def free_reduce(w: Word) -> Word:
    """The unique freely reduced word equal to w in the free group."""
    stack = _reduce_letters(w.letters)
    if len(stack) == len(w.letters):
        return w
    return _word(w.alphabet, tuple(stack))


def invert_letters(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    """The letters of the inverse word: reversed, each letter inverted."""
    return tuple(x ^ 1 for x in reversed(letters))


def invert(w: Word) -> Word:
    return _word(w.alphabet, invert_letters(w.letters))


def rotations(letters: tuple[Letter, ...]) -> set[tuple[Letter, ...]]:
    """The distinct cyclic rotations of a letter tuple and of its inverse."""
    return {
        s[k:] + s[:k]
        for s in (letters, invert_letters(letters))
        for k in range(max(len(letters), 1))
    }


def conjugate(x: Word, y: Word) -> Word:
    """x^y = y^-1 x y, freely reduced."""
    return free_reduce(concat(invert(y), x, y))


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v, freely reduced."""
    return free_reduce(concat(invert(u), invert(v), u, v))


def check_alphabet(w: Word, alphabet: Alphabet) -> None:
    """Refuse a word over another alphabet: letters are read by index, so
    a permuted or wider alphabet would silently mean a different word."""
    if w.alphabet is not alphabet and w.alphabet.names != alphabet.names:
        raise ValueError(
            f"word over {w.alphabet.names} given to a group over {alphabet.names}"
        )


def check_budget(
    length: int, budget: int = DEFAULT_BUDGET, line: int | None = None
) -> None:
    """Refuse a word of more than ``budget`` letters."""
    if length > budget:
        where = "" if line is None else f" (line {line})"
        raise BudgetExceededError(
            f"word expands to {length} letters (budget {budget}){where}"
        )


def parse_int(text: str, budget: int, line: int | None = None) -> int:
    """int(text), also for a number with more digits than int() reads: it
    is read without its sign and leading zeros, and one still that long is
    past any budget.  Other text that int() refuses raises its ValueError."""
    try:
        return int(text)
    except ValueError:
        if not text.removeprefix("-").isdecimal():
            raise
    digits = text.removeprefix("-").lstrip("0")
    try:
        k = int(digits or "0")
    except ValueError:
        where = "" if line is None else f" (line {line})"
        raise BudgetExceededError(
            f"word expands to at least 10^{len(digits) - 1} letters "
            f"(budget {budget}){where}"
        ) from None
    return -k if text[0] == "-" else k


def exponent_sum(w: Word) -> int:
    """The image of w in Z when every generator maps to 1."""
    return len(w.letters) - 2 * sum(x & 1 for x in w.letters)


def exponent_sums(w: Word) -> list[int]:
    """The exponent sum of each generator in w, by generator index."""
    sums = [0] * w.alphabet.arity
    for x in w.letters:
        sums[x >> 1] += -1 if x & 1 else 1
    return sums


def sort_key(w: Word) -> tuple[int, tuple[Letter, ...]]:
    """Length-lex order; int order on letters is the enumeration order."""
    return (len(w.letters), w.letters)


def render_word(w: Word) -> str:
    if not w.letters:
        return "1"
    return " ".join(map(w.alphabet.spellings.__getitem__, w.letters))


def render_canonical(w: Word) -> str:
    """Name-independent rendering over the basis x1..xn of the free group."""
    if not w.letters:
        return "1"
    return " ".join(map(w.alphabet.canonical_spellings.__getitem__, w.letters))


def ball_size(n: int, r: int) -> int:
    """Number of freely reduced words of length <= r over n generators."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    total = 1
    for k in range(1, r + 1):
        total += 2 * n * (2 * n - 1) ** (k - 1)
    return total


def _sphere_from(
    alphabet: Alphabet,
    length: int,
    prefix: list[Letter],
    steps: Sequence[tuple[int, int]],
    sums: list[int],
    norm: int,
    follow: Sequence[Sequence[Letter]],
) -> Iterator[Word]:
    """The words of ``length`` more letters after ``prefix`` whose
    coordinate sums end at 0.  Letter x adds ``steps[x] = (k, d)`` to
    ``sums[k]``; letters of no coordinate add 0 to a last slot that stays
    0.  ``norm`` is the L1 norm of ``sums``.  Each letter moves it by at
    most 1, so a child is cut when its norm exceeds the letters left after
    it, and every leaf reached has norm 0.  Every letter of a word, its
    first included, lies in ``follow[first]``."""
    if length == 0:
        yield _word(alphabet, tuple(prefix))
        return
    if prefix:
        cancel, letters = prefix[-1] ^ 1, follow[prefix[0]]
    else:
        cancel, letters = -1, [f for f, allowed in enumerate(follow) if f in allowed]
    left = length - 1
    for x in letters:
        if x == cancel:
            continue
        k, d = steps[x]
        old = sums[k]
        child = norm + abs(old + d) - abs(old)
        if child > left:
            continue
        sums[k] = old + d
        prefix.append(x)
        yield from _sphere_from(alphabet, left, prefix, steps, sums, child, follow)
        prefix.pop()
        sums[k] = old


# _sphere_from recurses once per letter, and a one-letter alphabet hits
# Python's recursion limit near length 985; this keeps well below it.  The
# cap is checked when a walk starts, so a scan that stops short never meets it.
_MAX_LENGTH = 500


def _walk(
    alphabet: Alphabet, lengths: range, coordinates: Sequence[int],
    follow: Sequence[Sequence[Letter]] | None = None,
) -> Iterator[Word]:
    """The spheres of the given lengths, pruned by ``coordinates`` and by
    ``follow``, the letters allowed after each first letter (all of them
    by default)."""
    if lengths[-1] > _MAX_LENGTH:
        raise ValueError(f"radius must be at most {_MAX_LENGTH}, got {lengths[-1]}")
    steps = [(len(coordinates), 0)] * (2 * alphabet.arity)
    for k, i in enumerate(coordinates):
        if not 0 <= i < alphabet.arity:
            raise ValueError(f"coordinate {i} out of range for arity {alphabet.arity}")
        steps[2 * i], steps[2 * i + 1] = (k, 1), (k, -1)
    if follow is None:
        follow = [range(len(steps))] * len(steps)
    sums = [0] * (len(coordinates) + 1)
    for length in lengths:
        yield from _sphere_from(alphabet, length, [], steps, sums, 0, follow)


def enumerate_sphere(
    alphabet: Alphabet, length: int, coordinates: Sequence[int] = ()
) -> Iterator[Word]:
    """Freely reduced words of exactly the given length, in lex order;
    see :func:`enumerate_ball` for ``coordinates``."""
    if length < 0:
        raise ValueError("length must be non-negative")
    return _walk(alphabet, range(length, length + 1), coordinates)


def enumerate_ball(
    alphabet: Alphabet, r: int, coordinates: Sequence[int] = ()
) -> Iterator[Word]:
    """Every freely reduced word of length <= r, once, in length-lex order.

    Given generator indices as ``coordinates``, only the words with
    exponent sum 0 in each of them are yielded, in the same order: the
    walk cuts every prefix whose sums are too far from 0 to return in the
    letters left.  With ``()`` it yields the whole ball.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    return _walk(alphabet, range(r + 1), coordinates)


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
    for x in w.letters:
        img = sigma.images[x >> 1].letters
        letters.extend(invert_letters(img) if x & 1 else img)
    return free_reduce(_word(sigma.target, tuple(letters)))


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
# No power, conjugation, commutator or sequence may build a word longer
# than the letter budget; powers are measured before they are expanded,
# and a power of the empty word is the empty word.  A text of plain
# letters only, NAME or NAME^-1 separated by whitespace, is read by one
# split; any other text is read by the grammar, one lexeme per token.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<int>-?\d+)"
    r"|(?P<sym>[\^\(\)\[\],])|(?P<bad>\S))"
)

# Each level of brackets costs three parser frames (sequence, item, atom),
# so this keeps the recursion far below Python's limit.
_MAX_DEPTH = 100

_Token = tuple[str, str, int]  # (kind, value, col)


class _Tokens:
    def __init__(self, text: str, alphabet: Alphabet, line: int | None, budget: int):
        self.line = line
        self.budget = budget
        self.letter_of = alphabet._letter_of
        self.pos = 0
        self.items: list[_Token] = []
        depth = 0
        # Trailing whitespace is cut first: the leading \s* of a search that
        # finds no token would give it back one character at a time, from
        # each start, which is quadratic.
        for m in _TOKEN_RE.finditer(text.rstrip()):
            kind = m.lastgroup
            value, col = m[kind], m.start(kind)
            if kind == "bad":
                raise WordSyntaxError(f"unexpected character {value!r}", line, col + 1)
            depth += (value in "([") - (value in ")]")  # no name or int is in these
            if depth > _MAX_DEPTH:
                raise WordSyntaxError(
                    f"brackets nested deeper than {_MAX_DEPTH}", line, col + 1
                )
            self.items.append((kind, value, col))

    def peek(self) -> _Token | None:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self) -> _Token:
        item = self.peek()
        if item is None:
            raise WordSyntaxError("unexpected end of word", self.line)
        self.pos += 1
        return item

    def check(self, length: int) -> None:
        check_budget(length, self.budget, self.line)


def parse_word(
    text: str, alphabet: Alphabet, line: int | None = None, *,
    budget: int = DEFAULT_BUDGET,
) -> Word:
    """Parse the word grammar, expanding sugar into plain letter sequences."""
    try:  # plain letters, NAME or NAME^-1, need no grammar
        letters = tuple(map(alphabet._letter_of.__getitem__, text.split()))
    except KeyError:
        tokens = _Tokens(text, alphabet, line, budget)
        return _word(alphabet, tuple(_parse_sequence(tokens, stop=())))
    if letters and len(letters) > budget:
        # refused at the letter where the grammar, reading one item at a
        # time, would refuse it
        check_budget(max(budget, 0) + 1, budget, line)
    return _word(alphabet, letters)


def _parse_sequence(tokens: _Tokens, stop: tuple[str, ...]) -> list[Letter]:
    """Items up to a ``stop`` symbol or the end."""
    letters: list[Letter] = []
    while (token := tokens.peek()) is not None and token[1] not in stop:
        letters += _parse_item(tokens)
        if len(letters) > tokens.budget:
            tokens.check(len(letters))
    return letters


def _power(base: list[Letter], k: int, check: Callable[[int], None]) -> list[Letter]:
    """w^k for a freely reduced w != 1, measured by ``check`` before it is
    built.  With w = u v u^-1 and v cyclically reduced, w^k = u v^k u^-1,
    which is reduced as written."""
    if k < 0:
        base, k = list(invert_letters(base)), -k  # w^-1 = u v^-1 u^-1
    n, m = len(base), 0
    while 2 * m + 1 < n and base[m] == base[-1 - m] ^ 1:
        m += 1
    check(2 * m + k * (n - 2 * m) if k else 0)
    return base[:m] + base[m:n - m] * k + base[n - m:] if k else []


def _parse_item(tokens: _Tokens) -> list[Letter]:
    base = _parse_atom(tokens)
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
            base = _reduce_letters(base)
            if not base:
                continue  # a power of 1 is 1; [] * k overflows past sys.maxsize
            k = parse_int(exp[1], tokens.budget, tokens.line)
            base = _power(base, k, tokens.check)
        else:
            y = _parse_atom(tokens)
            base = _reduce_letters([*invert_letters(y), *base, *y])
            tokens.check(len(base))


def _parse_atom(tokens: _Tokens) -> list[Letter]:
    kind, value, col = tokens.next()
    if kind == "name":
        if value not in tokens.letter_of:
            raise WordSyntaxError(f"unknown generator {value!r}", tokens.line, col + 1)
        return [tokens.letter_of[value]]
    if kind == "int" and value == "1":
        return []
    if kind == "sym" and value == "(":
        inner = _parse_sequence(tokens, stop=(")",))
        tokens.next()  # the ")" that stopped the sequence
        return inner
    if kind == "sym" and value == "[":
        u = _parse_sequence(tokens, stop=(",",))
        tokens.next()  # ","
        v = _parse_sequence(tokens, stop=("]",))
        tokens.next()  # "]"
        w = _reduce_letters([*invert_letters(u), *invert_letters(v), *u, *v])
        tokens.check(len(w))
        return w
    raise WordSyntaxError(f"unexpected token {value!r}", tokens.line, col + 1)
