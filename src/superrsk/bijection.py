"""Inverse insertion, the shuffle-change bijection, and standardization maps."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .alphabet import Alphabet, Letter, Shuffle, u as u_letter, t as t_letter
from .insertion import _Lane, Variant, Word, _indices_of, _valid_grid, _walk
from .tableau import Cell, RecordingTableau, Shape, Tableau, _standard_cells

__all__ = [
    "Standardization",
    "reverse_word",
    "change_shuffle",
    "standardize_u",
    "standardize_t",
]


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
    mapped once; the walk itself runs on ranks only.  The recovered letters
    come from the shuffle's order, so the ``Word`` is built without its
    constructor's check.
    """
    ranks = _checked_reverse(p, q, _Lane(shuffle, variant, logged=False))
    return Word._of(tuple(map(shuffle.order.__getitem__, ranks)))


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


def _checked_reverse(p: Tableau, q: RecordingTableau, lane: _Lane) -> list[int]:
    """The ranks of the word that (p, q) reverses to under the lane's shuffle
    and variant, after all of ``reverse_word``'s guards."""
    cells = _check_recording(p.shape, q.rows)
    rows, cols = _valid_grid(p, lane.shuffle, lane.strict, _INVALID_P)
    return _reverse_ranks(rows, cols, cells, lane)


def _reverse_ranks(rows, cols, cells: list[Cell], lane: _Lane) -> list[int]:
    """Reverse a checked (P, Q) under the lane's shuffle and variant, P held
    as rank rows and columns, which it consumes, and Q as its cells by label;
    returns the recovered word's ranks, first letter first.

    Each ejection pops the last entry of its row and column.  A line that
    empties stays in the lists: every later corner, and every walk, lies
    inside the shrinking diagram.  A walking t searches its row and a
    walking u its column; the crossing line is read only to write the
    displaced cell or to pass a run of entries equal to the walking letter,
    which no displacement changes, in one bisection.
    """
    order, is_t, find_t, find_u = lane.shuffle.order, lane.is_t, lane.back_t, lane.back_u
    recovered: list[int] = []
    for i, j in reversed(cells):
        # the current maximum of a standard tableau sits at a corner
        row = rows[i]
        assert j == len(row) - 1 and len(cols[j]) == i + 1
        x = row.pop()
        cols[j].pop()
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
                y = row[j]
                if y != x:
                    row[j] = cols[j][i] = x
                    x = y
                else:  # to the top of the run of x up column j
                    i = bisect_left(cols[j], x, 0, i)
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
                y = col[i]
                if y != x:
                    col[i] = rows[i][j] = x
                    x = y
                else:  # to the left end of the run of x along row i
                    j = bisect_left(rows[i], x, 0, j)
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
    ranks and keep no step log: only the new P is built.  The two shuffles
    must order one alphabet.
    """
    if source.alphabet != target.alphabet:
        raise ValueError("shuffles must share an alphabet")
    back = _Lane(source, variant, logged=False)
    word = tuple(map(back.letter.__getitem__, _checked_reverse(p, q, back)))
    lane = _Lane(target, variant, logged=False)
    next(_walk((word,), [lane]))
    return lane.tableau()


@dataclass(frozen=True)
class Standardization:
    """A relabelled word over an enlarged alphabet with its derived shuffle.

    ``source_map`` sends each fresh letter back to the letter it replaced.
    """

    word: Word
    shuffle: Shuffle
    source_map: tuple[tuple[Letter, Letter], ...]


def _relabel(word: tuple[int, ...], k: int, l: int, kind: str):
    """The letter counts of one kind in an alphabet-index word over (k, l),
    and the word relabelled as ``standardize_u`` or ``standardize_t`` does.

    The relabelled word is written in alphabet indices of the derived
    alphabet, whose letters of that kind number the counts' sum: the other
    kind's letters keep their letter, and the occurrences of the kind's j-th
    letter take the next fresh letters of its block, u's rightmost first and
    t's leftmost first.
    """
    low, size = (k, l) if kind == "u" else (0, k)
    counts = [0] * size
    for a in word:
        if low <= a < low + size:
            counts[a - low] += 1
    # fresh[j]: the derived index of the next occurrence of the kind's j-th letter
    fresh = [low] * size
    for j in range(1, size):
        fresh[j] = fresh[j - 1] + counts[j - 1]
    # a derived alphabet with more (or fewer) t's moves every u's index
    shift = 0 if kind == "u" else sum(counts) - k
    relabelled = [a + shift for a in word]
    for pos in range(len(word) - 1, -1, -1) if kind == "u" else range(len(word)):
        a = word[pos] - low
        if 0 <= a < size:
            relabelled[pos] = fresh[a]
            fresh[a] += 1
    return tuple(counts), tuple(relabelled)


def _standardize(v: Word, shuffle: Shuffle, kind: str) -> Standardization:
    """Relabel the letters of one kind; see standardize_u and standardize_t."""
    alphabet = shuffle.alphabet
    k, l = alphabet.k, alphabet.l
    counts, relabelled = _relabel(_indices_of(v, alphabet), k, l, kind)
    total, other = sum(counts), (k if kind == "u" else l)
    if total == 0 and other == 0:
        # empty word over a one-kind alphabet: nothing to relabel
        return Standardization(v, shuffle, ())
    fresh = u_letter if kind == "u" else t_letter
    blocks, start = [], 0  # per letter of the kind: its fresh letters, ascending
    for count in counts:
        blocks.append([fresh(start + i) for i in range(1, count + 1)])
        start += count
    new_alphabet = Alphabet(k, total) if kind == "u" else Alphabet(total, l)
    order: list[Letter] = []
    for letter in shuffle.order:
        order.extend(blocks[letter.index - 1] if letter.kind == kind else (letter,))
    derived = Shuffle(new_alphabet, tuple(order))
    source = tuple((new, fresh(j)) for j, block in enumerate(blocks, 1) for new in block)
    letters = new_alphabet.letters()
    return Standardization(Word(tuple(letters[a] for a in relabelled)), derived, source)


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
