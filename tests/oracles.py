"""Per-word references for the claims the verify grids check, the word list
they walk, each claim's exhaustive case count, and tableau weights.

The library checks each claim on the rank-level walk shared by the word
grids.  These helpers check one word at a time, the literal way: they insert
through ``insert_word`` and compare ``Tableau`` objects, so the tests can hold
the grids (and ``hook_schur``) against the definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, perm
from typing import Iterable, Iterator

from superrsk import (
    REGULAR_DUAL,
    REGULAR_REGULAR,
    Alphabet,
    InsertionResult,
    Letter,
    Shuffle,
    Standardization,
    Tableau,
    Variant,
    Word,
    adjacent_transposition,
    classify_regions,
    insert_word,
    standardize_u,
    t,
    u,
)
from superrsk.insertion import _ranks_of
from superrsk.polynomial import Monomial
from superrsk.tableau import _check_pair, _is_prefix_grid
from superrsk.verify import _cells_ok, _paths_ok


# ---------------------------------------------------------------------------
# words


def all_words(alphabet: Alphabet, n: int) -> Iterator[Word]:
    """All (k+l)^n words of length n, in product order over the alphabet."""
    for combo in product(alphabet.letters(), repeat=n):
        yield Word(combo)


# ---------------------------------------------------------------------------
# case counts


def claim_cases(token: str, k: int, l: int, n: int) -> int:
    """The ``cases`` of an exhaustive ``verify --theorem <token>`` report at
    alphabet (k, l) and length n, in closed form."""
    shuffles, words = comb(k + l, k), (k + l) ** n
    # unordered shuffle pairs one adjacent t/u swap apart: a shuffle has on
    # average 2kl/(k+l) t/u neighbours, so C(k+l, k) * kl/(k+l) pairs
    adjacent = comb(k + l - 1, k - 1) * l if k and l else 0
    if token in ("2", "5"):  # words x unordered shuffle pairs
        return words * comb(shuffles, 2)
    if token == "lemma2.6":  # words x shuffles x restriction letters
        return words * shuffles * (k + l)
    if token in ("lemma2.15", "region1"):  # words x adjacent pairs
        return words * adjacent
    if token == "lemma3.2":  # words with pairwise distinct u's x shuffles
        return shuffles * sum(comb(n, j) * perm(l, j) * k ** (n - j) for j in range(n + 1))
    if token == "theorem3":
        # ordered pairs of distinct shuffles x (P, Q) pairs of n cells, which
        # the words of length n count
        return shuffles * (shuffles - 1) * words
    if token in ("paths", "cells", "round-trip", "mimicry", "converse"):
        return words * shuffles  # for converse, (P, Q) pairs of n cells x shuffles
    if token == "identity":  # shuffles x variants
        return 4 * shuffles
    if token == "cor4":  # shapes of n cells x the shuffles after the first
        shapes = [1] + [0] * n
        for part in range(1, n + 1):
            for m in range(part, n + 1):
                shapes[m] += shapes[m - part]
        return shapes[n] * (shuffles - 1)
    raise ValueError(f"no closed form for claim token {token!r}")


# ---------------------------------------------------------------------------
# textbook insertion


def hook_insert(v: Word, shuffle: Shuffle, variant: Variant):
    """P's and Q's rows after inserting v by the textbook rule, cell by cell.

    P and Q are dicts of 1-based cells.  A t scans its row from the left and
    a u its column from the top, for the first entry above it in the shuffle
    (regular rule) or not below it (dual rule).  It settles in the first
    empty cell, or swaps with that entry: a displaced t goes on into the
    next row, a displaced u into the next column.  Q records where each
    letter's new cell appeared.
    """
    rank = shuffle.rank
    p: dict[tuple[int, int], Letter] = {}
    q: dict[tuple[int, int], int] = {}
    for m, x in enumerate(v, 1):
        r, c = 1, 1
        while True:
            is_t = x.kind == "t"
            dual = (variant.t_rule if is_t else variant.u_rule) == "dual"
            while (r, c) in p and not (rank(p[r, c]) > rank(x) or dual and p[r, c] == x):
                r, c = (r, c + 1) if is_t else (r + 1, c)
            if (r, c) not in p:
                p[r, c], q[r, c] = x, m
                break
            x, p[r, c] = p[r, c], x
            r, c = (r + 1, 1) if x.kind == "t" else (1, c + 1)

    def rows(cells: dict) -> tuple[tuple, ...]:
        grid: list[list] = []
        for r, c in sorted(cells):
            while len(grid) < r:  # a skipped row stays empty, which no tableau has
                grid.append([])
            grid[r - 1].append(cells[r, c])
        return tuple(map(tuple, grid))

    return rows(p), rows(q)


# ---------------------------------------------------------------------------
# content and weight


@dataclass(frozen=True)
class TypeVector:
    """Occurrence counts (alpha_1..alpha_k; beta_1..beta_l) of each letter."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.alpha) + sum(self.beta)


def word_type(letters: Iterable[Letter], alphabet: Alphabet) -> TypeVector:
    alpha = [0] * alphabet.k
    beta = [0] * alphabet.l
    for letter in letters:
        if letter not in alphabet:
            raise ValueError(f"letter {letter} outside alphabet {alphabet}")
        if letter.kind == "t":
            alpha[letter.index - 1] += 1
        else:
            beta[letter.index - 1] += 1
    return TypeVector(tuple(alpha), tuple(beta))


def content_type(tab: Tableau, alphabet: Alphabet) -> TypeVector:
    return word_type((e for _, e in tab.items()), alphabet)


def weight_monomial(tab: Tableau, alphabet: Alphabet) -> Monomial:
    """x-exponents count the t's, y-exponents count the u's."""
    tv = content_type(tab, alphabet)
    return Monomial(tv.alpha, tv.beta)


def is_subtableau(small: Tableau, big: Tableau) -> bool:
    """True when small's diagram fits inside big's and entries agree there."""
    return _is_prefix_grid(small.rows, big.rows)


def standardize(v: Word, shuffle: Shuffle, kind: str) -> Standardization:
    """``standardize_u`` (kind "u") or ``standardize_t`` (kind "t"), letter by letter.

    Each letter of the kind is renamed, u's rightmost first and t's leftmost
    first, to the next fresh letter of its block.  The blocks follow the
    kind's letters in index order, each as long as its letter's count, and
    the derived shuffle puts each block, ascending, where its letter stood.
    """
    alphabet = shuffle.alphabet
    for letter in v:
        if letter not in alphabet:
            raise ValueError(f"letter {letter} outside alphabet {alphabet}")
    fresh = u if kind == "u" else t
    size = alphabet.l if kind == "u" else alphabet.k
    counts = [sum(1 for x in v if x == fresh(j)) for j in range(1, size + 1)]
    total = sum(counts)
    if total == 0 and size == alphabet.size:
        return Standardization(v, shuffle, ())
    blocks = {
        fresh(j + 1): [fresh(sum(counts[:j]) + i) for i in range(1, counts[j] + 1)]
        for j in range(size)
    }
    unused = {letter: list(block) for letter, block in blocks.items()}
    letters = list(v)
    for pos in reversed(range(len(v))) if kind == "u" else range(len(v)):
        if letters[pos] in unused:
            letters[pos] = unused[letters[pos]].pop(0)
    derived = Alphabet(alphabet.k, total) if kind == "u" else Alphabet(total, alphabet.l)
    order = tuple(x for letter in shuffle.order for x in blocks.get(letter, [letter]))
    source = tuple((x, letter) for letter, block in blocks.items() for x in block)
    return Standardization(Word(tuple(letters)), Shuffle(derived, order), source)


def unmap_tableau(std: Standardization, tab: Tableau) -> Tableau:
    """``tab`` with each of the standardization's fresh letters sent back."""
    back = dict(std.source_map)
    return Tableau(tuple(tuple(back.get(e, e) for e in row) for row in tab.rows))


# ---------------------------------------------------------------------------
# pair regions


def order_adjacent_pairs(s: Shuffle) -> list[tuple[Letter, Letter]]:
    """All (t_i, u_j) pairs occupying consecutive ranks of s, t-letter first."""
    pairs = []
    for x, y in zip(s.order, s.order[1:]):
        if x.kind != y.kind:
            pairs.append((x, y) if x.kind == "t" else (y, x))
    return pairs


def region2_shape_ok(tab: Tableau, shuffle: Shuffle, pair: tuple[Letter, Letter]) -> bool:
    """Row/column profile of the pair region.

    When t_i comes first in the shuffle: in each region-2 row everything but
    possibly the rightmost cell holds t_i, and in each region-2 column
    everything but possibly the topmost holds u_j.  When u_j comes first the
    picture is mirrored (u_j leftmost in rows, t_i bottommost in columns).
    """
    ti, uj = _check_pair(pair)
    regions = classify_regions(tab, shuffle, pair)
    by_row: dict[int, list[tuple[int, Letter]]] = {}
    by_col: dict[int, list[tuple[int, Letter]]] = {}
    for (r, c), label in regions.items():
        if label != 2:
            continue
        by_row.setdefault(r, []).append((c, tab.entry(r, c)))
        by_col.setdefault(c, []).append((r, tab.entry(r, c)))
    t_first = shuffle.less(ti, uj)
    for cells in by_row.values():
        cells.sort()
        body = cells[:-1] if t_first else cells[1:]
        if any(e != ti for _, e in body):
            return False
    for cells in by_col.values():
        cells.sort()
        body = cells[1:] if t_first else cells[:-1]
        if any(e != uj for _, e in body):
            return False
    return True


# ---------------------------------------------------------------------------
# single-case predicates


def check_path_monotonicity(result: InsertionResult) -> bool:
    """Bumped elements never drift outward.

    Within one letter's steps, a t bumped from (i, j) acts in row i+1 at a
    column <= j, and a u bumped from (i, j) acts in column j+1 at a row <= i.
    """
    return _paths_ok(result.trace.log, [x.kind == "t" for x in result.trace.order])


def check_cell_monotonicity(result: InsertionResult, shuffle: Shuffle) -> bool:
    """Across consecutive states, occupied cells persist and entries only shrink."""
    rank = _ranks_of(result.trace.order, shuffle)
    return _cells_ok((r, c, rank[x]) for r, c, x, _ in result.trace.log)


def _restricted_p(v: Word, shuffle: Shuffle, x: Letter, variant: Variant) -> Tableau:
    """P of the subword of the letters <= x."""
    bound = shuffle.rank(x)
    restricted = Word(tuple(a for a in v if shuffle.rank(a) <= bound))
    return insert_word(restricted, shuffle, variant).p


def check_restriction_subtableau(
    v: Word, shuffle: Shuffle, x: Letter, variant: Variant = REGULAR_REGULAR
) -> bool:
    """Inserting only the letters <= x yields a subtableau of the full insertion."""
    small = _restricted_p(v, shuffle, x, variant)
    return is_subtableau(small, insert_word(v, shuffle, variant).p)


def check_region1_agreement(v: Word, a: Shuffle, b: Shuffle) -> bool:
    """Adjacent shuffles build identical subtableaux out of the low letters."""
    pair = adjacent_transposition(a, b)
    if pair is None:
        raise ValueError("shuffles must be adjacent")
    pa = insert_word(v, a, REGULAR_REGULAR).p
    pb = insert_word(v, b, REGULAR_REGULAR).p
    regions_a = classify_regions(pa, a, pair)
    regions_b = classify_regions(pb, b, pair)
    low_a = {cell: pa.entry(*cell) for cell, lab in regions_a.items() if lab == 1}
    low_b = {cell: pb.entry(*cell) for cell, lab in regions_b.items() if lab == 1}
    return low_a == low_b


def check_dual_regular_agreement(v: Word, shuffle: Shuffle) -> bool:
    """With pairwise distinct u-letters, the regular and dual u-rules coincide."""
    seen = set()
    for letter in v:
        if letter.kind == "u":
            if letter in seen:
                raise ValueError(f"u-letter {letter} repeats in {v}")
            seen.add(letter)
    reg = insert_word(v, shuffle, REGULAR_REGULAR)
    dual = insert_word(v, shuffle, REGULAR_DUAL)
    return reg.p == dual.p and reg.q == dual.q


def check_standardization_mimicry(v: Word, shuffle: Shuffle) -> bool:
    """Relabelling repeated u's reproduces the dual insertion cell for cell.

    The relabelled word, inserted under the derived shuffle, must give the
    original dual insertion tableau once fresh letters are mapped back, with
    the same recording tableau (hence the same shape).
    """
    std = standardize_u(v, shuffle)
    original = insert_word(v, shuffle, REGULAR_DUAL)
    relabelled = insert_word(std.word, std.shuffle, REGULAR_DUAL)
    if original.p.shape != relabelled.p.shape:
        return False
    if original.q != relabelled.q:
        return False
    return unmap_tableau(std, relabelled.p) == original.p
