"""Inverse insertion, the shuffle-change bijection, and standardization maps."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .alphabet import Alphabet, Letter, Shuffle, u as u_letter, t as t_letter
from .insertion import Variant, Word, _is_t, _rank_grid, insert_word, variant_profile
from .tableau import RecordingTableau, Tableau, is_standard, is_valid

__all__ = [
    "Standardization",
    "reverse_word",
    "change_shuffle",
    "standardize_u",
    "standardize_t",
]


# displacement search per rule, one past the rightmost entry < x (regular)
# or <= x (dual)
_DISPLACE_SEARCH = {"regular": bisect_left, "dual": bisect_right}


def reverse_word(
    p: Tableau, q: RecordingTableau, shuffle: Shuffle, variant: Variant
) -> Word:
    """Recover the unique word whose insertion under (shuffle, variant) is (p, q).

    Labels are processed n down to 1.  The occupant of label m's cell is
    ejected and walked backwards: a t-letter sitting in row i re-enters row
    i-1 by displacing the rightmost entry below it (regular rule) or
    below-or-equal (dual rule); a u-letter sitting in column j re-enters
    column j-1 by displacing the bottommost such entry.  A t-letter leaving
    row 1, or a u-letter leaving column 1, is the recovered v_m.
    """
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    if not is_standard(q):
        raise ValueError("recording tableau is not standard")
    if not is_valid(p, shuffle, variant_profile(variant)):
        raise ValueError("insertion tableau is not valid for this shuffle and variant")

    rows, cols = _rank_grid(p, shuffle)
    order = shuffle.order
    is_t = _is_t(shuffle)
    find_t, find_u = _DISPLACE_SEARCH[variant.t_rule], _DISPLACE_SEARCH[variant.u_rule]
    position = {m: (i, j) for i, row in enumerate(q.rows) for j, m in enumerate(row)}
    recovered: list[Letter] = []
    for m in range(q.size, 0, -1):
        i, j = position[m]
        # the current maximum of a standard tableau sits at a corner
        assert j == len(rows[i]) - 1 and len(cols[j]) == i + 1
        x = rows[i].pop()
        cols[j].pop()
        if not rows[i]:
            rows.pop()
        if not cols[j]:
            cols.pop()
        while True:
            if is_t[x]:
                if i == 0:
                    break
                i -= 1
                j = find_t(rows[i], x) - 1
                if j < 0:
                    raise ValueError(
                        f"irreducible configuration: nothing in row {i + 1} "
                        f"admits {order[x]}"
                    )
            else:
                if j == 0:
                    break
                j -= 1
                i = find_u(cols[j], x) - 1
                if i < 0:
                    raise ValueError(
                        f"irreducible configuration: nothing in column {j + 1} "
                        f"admits {order[x]}"
                    )
            y = rows[i][j]
            rows[i][j] = cols[j][i] = x
            x = y
        recovered.append(order[x])
    return Word(tuple(reversed(recovered)))


def change_shuffle(
    p: Tableau,
    q: RecordingTableau,
    source: Shuffle,
    target: Shuffle,
    variant: Variant,
) -> Tableau:
    """Transport p across a shuffle change with the recording tableau held fixed.

    Reverses (p, q) under the source order and re-inserts the recovered word
    under the target order; the new pair has the same shape, the same
    recording tableau, and the same letter content.
    """
    word = reverse_word(p, q, source, variant)
    return insert_word(word, target, variant).p


@dataclass(frozen=True)
class Standardization:
    """A relabelled word over an enlarged alphabet with its derived shuffle.

    ``letter_map`` gives the fresh letter at each 1-based word position;
    ``source_map`` sends each fresh letter back to the letter it replaced.
    """

    word: Word
    shuffle: Shuffle
    letter_map: tuple[Letter, ...]
    source_map: tuple[tuple[Letter, Letter], ...]

    def original_letter(self, fresh: Letter) -> Letter:
        for new, old in self.source_map:
            if new == fresh:
                return old
        return fresh

    def unmap_tableau(self, tab: Tableau) -> Tableau:
        back = dict(self.source_map)
        return Tableau(
            tuple(tuple(back.get(e, e) for e in row) for row in tab.rows)
        )


def standardize_u(v: Word, shuffle: Shuffle) -> Standardization:
    """Replace repeated u-letters by distinct fresh ones, right to left per value.

    The occurrences of the original u_j are renamed, rightmost first, to the
    next block of fresh u-letters in increasing index order.  The derived
    shuffle keeps the t's in place and substitutes each original u_j by its
    block, ascending, so every order relation of the original word survives
    while equal u's become strictly decreasing left to right.
    """
    alphabet = shuffle.alphabet
    counts = [0] * alphabet.l
    for letter in v:
        if letter not in alphabet:
            raise ValueError(f"letter {letter} outside alphabet {alphabet}")
        if letter.kind == "u":
            counts[letter.index - 1] += 1
    total = sum(counts)
    if total == 0 and alphabet.k == 0:
        # empty word over a pure-u alphabet: nothing to relabel
        return Standardization(v, shuffle, v.letters, ())
    offsets = [0] * alphabet.l
    for j in range(1, alphabet.l):
        offsets[j] = offsets[j - 1] + counts[j - 1]

    new_letters = list(v.letters)
    used = [0] * alphabet.l
    for pos in range(len(v) - 1, -1, -1):
        letter = v[pos]
        if letter.kind == "u":
            j = letter.index - 1
            used[j] += 1
            new_letters[pos] = u_letter(offsets[j] + used[j])

    new_alphabet = Alphabet(alphabet.k, total)
    order: list[Letter] = []
    for letter in shuffle.order:
        if letter.kind == "t":
            order.append(letter)
        else:
            j = letter.index - 1
            order.extend(u_letter(offsets[j] + i) for i in range(1, counts[j] + 1))
    derived = Shuffle(new_alphabet, tuple(order))
    source = tuple(
        (u_letter(offsets[j] + i), u_letter(j + 1))
        for j in range(alphabet.l)
        for i in range(1, counts[j] + 1)
    )
    return Standardization(Word(tuple(new_letters)), derived, tuple(new_letters), source)


def standardize_t(v: Word, shuffle: Shuffle) -> Standardization:
    """Replace repeated t-letters by distinct fresh ones, left to right per value.

    Mirror of the u-side: occurrences of the original t_i are renamed,
    leftmost first, to the next block of fresh t-letters in increasing index
    order; u-letters are untouched and the derived shuffle substitutes each
    original t_i by its ascending block.
    """
    alphabet = shuffle.alphabet
    counts = [0] * alphabet.k
    for letter in v:
        if letter not in alphabet:
            raise ValueError(f"letter {letter} outside alphabet {alphabet}")
        if letter.kind == "t":
            counts[letter.index - 1] += 1
    total = sum(counts)
    if total == 0 and alphabet.l == 0:
        return Standardization(v, shuffle, v.letters, ())
    offsets = [0] * alphabet.k
    for i in range(1, alphabet.k):
        offsets[i] = offsets[i - 1] + counts[i - 1]

    new_letters = list(v.letters)
    used = [0] * alphabet.k
    for pos in range(len(v)):
        letter = v[pos]
        if letter.kind == "t":
            i = letter.index - 1
            used[i] += 1
            new_letters[pos] = t_letter(offsets[i] + used[i])

    new_alphabet = Alphabet(total, alphabet.l)
    order: list[Letter] = []
    for letter in shuffle.order:
        if letter.kind == "u":
            order.append(letter)
        else:
            i = letter.index - 1
            order.extend(t_letter(offsets[i] + n) for n in range(1, counts[i] + 1))
    derived = Shuffle(new_alphabet, tuple(order))
    source = tuple(
        (t_letter(offsets[i] + n), t_letter(i + 1))
        for i in range(alphabet.k)
        for n in range(1, counts[i] + 1)
    )
    return Standardization(Word(tuple(new_letters)), derived, tuple(new_letters), source)
