"""Inverse insertion, the shuffle-change bijection, and standardization maps."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .alphabet import Alphabet, Letter, Shuffle, u as u_letter, t as t_letter
from .insertion import _Lane, Variant, Word, _is_t, _ranks_of, _valid_grid, variant_profile
from .tableau import Cell, RecordingTableau, Shape, Tableau, _standard_cells, _strict_in_rows

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
    row 1, or a u-letter leaving column 1, is the recovered v_m.  Q is checked
    and its cells found in one pass, and P is checked on ranks, each letter
    mapped once; the walk itself runs on ranks only.
    """
    order = shuffle.order
    return Word(tuple(order[x] for x in _checked_reverse(p, q, shuffle, variant)))


_INVALID_P = "insertion tableau is not valid for this shuffle and variant"


def _check_recording(p_shape: Shape, q_rows) -> list[Cell]:
    """The reversal's guards on Q, P's shape and standard entries, in one pass;
    returns ``_standard_cells``, Q's cells by label."""
    q_shape = tuple(map(len, q_rows))
    if p_shape != q_shape:
        raise ValueError(f"shape mismatch: {p_shape} vs {q_shape}")
    cells = _standard_cells(q_rows)
    if cells is None:
        raise ValueError("recording tableau is not standard")
    return cells


def _checked_reverse(
    p: Tableau, q: RecordingTableau, shuffle: Shuffle, variant: Variant
) -> list[int]:
    """The shuffle ranks of ``reverse_word``'s word, after all of its guards."""
    cells = _check_recording(p.shape, q.rows)
    strict = _strict_in_rows(shuffle, variant_profile(variant))
    rows, cols = _valid_grid(p, shuffle, strict, _INVALID_P)
    return _reverse_ranks(rows, cols, cells, shuffle, variant)


def _reverse_ranks(rows, cols, cells: list[Cell], shuffle: Shuffle, variant: Variant) -> list[int]:
    """Reverse a checked (P, Q), P held as rank rows and columns, which it
    empties, and Q as its cells by label.

    Returns the recovered word's ranks, first letter first.
    """
    order = shuffle.order
    is_t = _is_t(shuffle)
    find_t, find_u = _DISPLACE_SEARCH[variant.t_rule], _DISPLACE_SEARCH[variant.u_rule]
    recovered: list[int] = []
    for i, j in reversed(cells):
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
                row = rows[i]
                j = find_t(row, x) - 1
                if j < 0:
                    raise ValueError(
                        f"irreducible configuration: nothing in row {i + 1} "
                        f"admits {order[x]}"
                    )
                col = cols[j]
            else:
                if j == 0:
                    break
                j -= 1
                col = cols[j]
                i = find_u(col, x) - 1
                if i < 0:
                    raise ValueError(
                        f"irreducible configuration: nothing in column {j + 1} "
                        f"admits {order[x]}"
                    )
                row = rows[i]
            y = row[j]
            row[j] = col[i] = x
            x = y
        recovered.append(x)
    recovered.reverse()
    return recovered


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
    recording tableau, and the same letter content.  Both passes stay on
    ranks and keep no step log: only the new P is built.
    """
    word = _ranks_of((source.order[x] for x in _checked_reverse(p, q, source, variant)), target)
    lane = _Lane(target, variant, logged=False)
    for x in word:
        lane.place(x)
    return Tableau(tuple(tuple(target.order[x] for x in row) for row in lane.rows))


@dataclass(frozen=True)
class Standardization:
    """A relabelled word over an enlarged alphabet with its derived shuffle.

    ``source_map`` sends each fresh letter back to the letter it replaced.
    """

    word: Word
    shuffle: Shuffle
    source_map: tuple[tuple[Letter, Letter], ...]


def _standardize(v: Word, shuffle: Shuffle, kind: str) -> Standardization:
    """Relabel the letters of one kind; see standardize_u and standardize_t."""
    alphabet = shuffle.alphabet
    size, other = (alphabet.l, alphabet.k) if kind == "u" else (alphabet.k, alphabet.l)
    fresh = u_letter if kind == "u" else t_letter
    counts = [0] * size
    for letter in v:
        if letter not in alphabet:
            raise ValueError(f"letter {letter} outside alphabet {alphabet}")
        if letter.kind == kind:
            counts[letter.index - 1] += 1
    total = sum(counts)
    if total == 0 and other == 0:
        # empty word over a one-kind alphabet: nothing to relabel
        return Standardization(v, shuffle, ())
    offsets = [0] * size
    for j in range(1, size):
        offsets[j] = offsets[j - 1] + counts[j - 1]

    new_letters = list(v.letters)
    used = [0] * size
    # u's are renamed rightmost first, t's leftmost first
    positions = range(len(v) - 1, -1, -1) if kind == "u" else range(len(v))
    for pos in positions:
        letter = v[pos]
        if letter.kind == kind:
            j = letter.index - 1
            used[j] += 1
            new_letters[pos] = fresh(offsets[j] + used[j])

    new_alphabet = Alphabet(alphabet.k, total) if kind == "u" else Alphabet(total, alphabet.l)
    order: list[Letter] = []
    for letter in shuffle.order:
        if letter.kind != kind:
            order.append(letter)
        else:
            j = letter.index - 1
            order.extend(fresh(offsets[j] + i) for i in range(1, counts[j] + 1))
    derived = Shuffle(new_alphabet, tuple(order))
    source = tuple(
        (fresh(offsets[j] + i), fresh(j + 1))
        for j in range(size)
        for i in range(1, counts[j] + 1)
    )
    return Standardization(Word(tuple(new_letters)), derived, source)


def standardize_u(v: Word, shuffle: Shuffle) -> Standardization:
    """Replace repeated u-letters by distinct fresh ones, right to left per value.

    The occurrences of the original u_j are renamed, rightmost first, to the
    next block of fresh u-letters in increasing index order.  The derived
    shuffle keeps the t's in place and substitutes each original u_j by its
    block, ascending, so every order relation of the original word survives
    while equal u's become strictly decreasing left to right.
    """
    return _standardize(v, shuffle, "u")


def standardize_t(v: Word, shuffle: Shuffle) -> Standardization:
    """Replace repeated t-letters by distinct fresh ones, left to right per value.

    Mirror of the u-side: occurrences of the original t_i are renamed,
    leftmost first, to the next block of fresh t-letters in increasing index
    order; u-letters are untouched and the derived shuffle substitutes each
    original t_i by its ascending block.
    """
    return _standardize(v, shuffle, "t")
