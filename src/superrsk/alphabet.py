"""Letters, alphabets and shuffle orders on the mixed alphabet {t1..tk, u1..ul}.

A shuffle is a total order on all k+l letters that restricts to the two chains
t1 < ... < tk and u1 < ... < ul; there are C(k+l, k) of them.  Everything here
is immutable and hashable so the verification harness can enumerate, cache and
compare shuffles freely.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

__all__ = [
    "Letter",
    "Alphabet",
    "Shuffle",
    "t",
    "u",
    "parse_letter",
    "all_shuffles",
    "kl_shuffle",
    "adjacent_transposition",
    "parse_shuffle",
    "shuffle_to_json",
]

_LETTER_RE = re.compile(r"([tu])([1-9][0-9]*)")


class Letter(namedtuple("_Letter", "kind index")):
    """A single symbol: kind "t" or "u" plus a positive int index.

    A validating named tuple ``(kind, index)``: equality, hashing and ordering
    are the tuple's, done in C.  The tuple order says nothing about any
    shuffle; compare letters through ``Shuffle.rank``.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int) -> "Letter":
        if kind not in ("t", "u"):
            raise ValueError(f"letter kind must be 't' or 'u', got {kind!r}")
        if type(index) is not int:  # a bool is an int to isinstance
            raise ValueError(f"letter index must be an integer, got {index!r}")
        if index < 1:
            raise ValueError(f"letter index must be positive, got {index}")
        return tuple.__new__(cls, (kind, index))

    @classmethod
    def _make(cls, iterable) -> "Letter":
        # through __new__'s checks, which the named tuple's _make and _replace skip
        return cls(*iterable)

    @property
    def name(self) -> str:
        return f"{self.kind}{self.index}"

    def __str__(self) -> str:
        return self.name


def _check_letters(rows, what: str) -> None:
    """Refuse any entry of ``rows`` that is not a ``Letter``, such as a plain
    tuple equal to one; the types are gathered in C, one pass over the entries."""
    if not set(map(type, chain.from_iterable(rows))) <= {Letter}:
        bad = next(x for x in chain.from_iterable(rows) if type(x) is not Letter)
        raise ValueError(f"{what} entries must be letters, got {bad!r}")


def t(index: int) -> Letter:
    """Shorthand for the letter t_index."""
    return Letter("t", index)


def u(index: int) -> Letter:
    """Shorthand for the letter u_index."""
    return Letter("u", index)


def parse_letter(text: str) -> Letter:
    m = _LETTER_RE.fullmatch(text.strip()) if isinstance(text, str) else None
    if m is None:
        raise ValueError(f"cannot parse letter {text!r} (expected e.g. 't1' or 'u2')")
    return Letter(m.group(1), int(m.group(2)))


@dataclass(frozen=True)
class Alphabet:
    """The mixed alphabet of k letters t1..tk and l letters u1..ul."""

    k: int
    l: int

    def __post_init__(self) -> None:
        for size in (self.k, self.l):
            if type(size) is not int:  # a bool is an int to isinstance
                raise ValueError(f"alphabet sizes must be integers, got {size!r}")
        if self.k < 0 or self.l < 0:
            raise ValueError("alphabet sizes must be non-negative")
        if self.k + self.l == 0:
            raise ValueError("alphabet must contain at least one letter")

    @property
    def size(self) -> int:
        return self.k + self.l

    def letters(self) -> tuple[Letter, ...]:
        """All letters, t's first by index, then u's by index."""
        return tuple(t(i) for i in range(1, self.k + 1)) + tuple(
            u(j) for j in range(1, self.l + 1)
        )

    def __contains__(self, letter: object) -> bool:
        if not isinstance(letter, Letter):  # a plain tuple equal to a letter is not one
            return False
        bound = self.k if letter.kind == "t" else self.l
        return 1 <= letter.index <= bound

    def __str__(self) -> str:
        return f"(k={self.k}, l={self.l})"


@dataclass(frozen=True)
class Shuffle:
    """A total order on an alphabet's letters, smallest first.

    The order must contain every letter exactly once and keep both the t-chain
    and the u-chain increasing.  Any malformed argument, a non-``Alphabet``
    alphabet or a non-iterable order included, raises ``ValueError``.
    """

    alphabet: Alphabet
    order: tuple[Letter, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.alphabet, Alphabet):
            raise ValueError(f"shuffle alphabet must be an Alphabet, got {self.alphabet!r}")
        try:
            order = tuple(self.order)
        except TypeError:
            raise ValueError(f"shuffle order must be iterable, got {self.order!r}") from None
        object.__setattr__(self, "order", order)
        _check_letters((order,), "shuffle")
        expected = self.alphabet.letters()
        if len(order) != len(expected) or set(order) != set(expected):
            raise ValueError(
                f"shuffle over {self.alphabet} must contain each letter exactly once"
            )
        for kind in ("t", "u"):
            indices = [x.index for x in order if x.kind == kind]
            if indices != sorted(indices):
                raise ValueError(f"{kind}-chain out of order in {_format(order)}")

    @cached_property
    def ranks(self) -> dict[Letter, int]:
        """Each letter's 0-based position in the order."""
        return {letter: r for r, letter in enumerate(self.order)}

    def rank(self, letter: Letter) -> int:
        if type(letter) is not Letter:  # a plain tuple equal to a letter is not one
            raise ValueError(f"rank arguments must be letters, got {letter!r}")
        try:
            return self.ranks[letter]
        except KeyError:
            raise ValueError(f"letter {letter} is not in alphabet {self.alphabet}") from None

    def less(self, a: Letter, b: Letter) -> bool:
        return self.rank(a) < self.rank(b)

    def __str__(self) -> str:
        return _format(self.order)


def _format(order: tuple[Letter, ...]) -> str:
    return "<".join(letter.name for letter in order)


def all_shuffles(alphabet: Alphabet) -> list[Shuffle]:
    """Every shuffle of the alphabet, ordered lexicographically by t/u pattern.

    The t-before-u pattern at the chosen positions determines the shuffle, so
    there are exactly C(k+l, k) results.
    """
    k, size = alphabet.k, alphabet.size
    shuffles = []
    for t_positions in combinations(range(size), k):
        spots = set(t_positions)
        order: list[Letter] = []
        next_t = next_u = 1
        for pos in range(size):
            if pos in spots:
                order.append(t(next_t))
                next_t += 1
            else:
                order.append(u(next_u))
                next_u += 1
        shuffles.append(Shuffle(alphabet, tuple(order)))
    return shuffles


def kl_shuffle(alphabet: Alphabet) -> Shuffle:
    """The order t1 < ... < tk < u1 < ... < ul."""
    return Shuffle(alphabet, alphabet.letters())


def adjacent_transposition(a: Shuffle, b: Shuffle) -> tuple[Letter, Letter] | None:
    """The unique (t_i, u_j) pair ordered oppositely in a and b, if there is one.

    Returns None when the shuffles are equal or differ on more than one mixed
    pair.  Symmetric in its arguments.  Both orders keep the t-chain and the
    u-chain, so only mixed pairs can be inverted, and exactly one is when the
    orders differ by swapping the entries at one i and i+1 alone.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("shuffles must share an alphabet")
    x, y = a.order, b.order
    i = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), None)
    if i is None or x[i] != y[i + 1] or x[i + 1] != y[i] or x[i + 2 :] != y[i + 2 :]:
        return None
    return (x[i], x[i + 1]) if x[i].kind == "t" else (x[i + 1], x[i])


def _parse_letters(text: str, sep: str, alphabet: Alphabet) -> tuple[Letter, ...]:
    """The letters that the stripped tokens of ``text`` between ``sep``s name,
    each checked to be in the alphabet; none if the text is blank."""
    if not text.strip():
        return ()
    letters = []
    for token in text.split(sep):
        letter = parse_letter(token.strip())
        if letter not in alphabet:
            raise ValueError(f"letter {letter} outside alphabet {alphabet}")
        letters.append(letter)
    return tuple(letters)


def parse_shuffle(text: str, alphabet: Alphabet) -> Shuffle:
    """Parse a chain like "t1<u1<t2<u2"; the Shuffle constructor validates it."""
    letters = _parse_letters(text, "<", alphabet)
    if not letters:
        raise ValueError("empty shuffle text")
    return Shuffle(alphabet, letters)


def shuffle_to_json(s: Shuffle) -> list[str]:
    return [letter.name for letter in s.order]
