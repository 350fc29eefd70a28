"""The four shuffle-parameterized insertion algorithms with step-level traces.

A t-letter always travels through rows and a u-letter through columns: a fresh
t enters row 1, a fresh u enters column 1, a bumped t re-enters the row below
the cell it left, and a bumped u re-enters the column to the right of the cell
it left.  The bump condition is chosen per kind: the regular rule displaces
the first entry strictly greater than the incomer, the dual rule the first
entry greater than or equal to it.

``insert_word`` computes P and Q eagerly on shuffle ranks, a bisection per
bump or run of equal entries, keeping no step log.  Each letter crosses to its
rank once, by a dict lookup that hashes the named-tuple ``Letter`` in C; a
given P crosses, and is checked, in one pass.  P and Q cross back once, built
by the private ``_of`` constructors without the public ones' checks: their
letters come from the shuffle's order and Q's labels from counting, so only
the diagram rule can fail, and the lane checks it whenever a settle may have
broken it.  ``reverse_word`` builds its ``Word`` the same way.  The trace
holds the word's ranks: the first read of its path lengths, step total,
placement log or steps re-inserts them once with a log, and the intermediate
``Tableau`` snapshots are built from that log only when ``steps`` or
``state_after`` is read.
``reverse_word``, ``change_shuffle`` and the verification grids work on ranks
and never build snapshots.  Every insertion, those grids' included, runs
through one rank-level state, ``_Lane``, filled, with a log or without, by
``_walk``, which the grids also use to step from word to word.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .alphabet import Alphabet, Letter, Shuffle, _check_letters, _parse_letters
from .tableau import (
    Cell,
    RecordingTableau,
    StrictnessProfile,
    Tableau,
    _check_diagram,
    _strict_in_rows,
    _valid_ranks,
)

__all__ = [
    "Word",
    "Variant",
    "PendingAction",
    "Step",
    "InsertionTrace",
    "InsertionResult",
    "REGULAR_REGULAR",
    "REGULAR_DUAL",
    "DUAL_REGULAR",
    "DUAL_DUAL",
    "VARIANTS",
    "parse_word",
    "parse_variant",
    "variant_profile",
    "insert_letter",
    "insert_word",
]


@dataclass(frozen=True)
class Word:
    """A finite sequence of letters v1..vn."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        _check_letters((letters,), "word")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _of(cls, letters: tuple[Letter, ...]) -> Word:
        """The word of ``letters``, taken as they are: a tuple of letters."""
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        return word

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i: int) -> Letter:
        return self.letters[i]

    def __str__(self) -> str:
        return ",".join(letter.name for letter in self.letters)


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse a comma-separated word like "u2,t1,t2,u1"; whitespace is ignored."""
    return Word(_parse_letters(text, ",", alphabet))


_RULES = ("regular", "dual")


@dataclass(frozen=True)
class Variant:
    """Bump-rule choice per letter kind."""

    t_rule: str
    u_rule: str

    def __post_init__(self) -> None:
        if self.t_rule not in _RULES or self.u_rule not in _RULES:
            raise ValueError("rules must be 'regular' or 'dual'")

    @property
    def name(self) -> str:
        short = {"regular": "reg", "dual": "dual"}
        return f"{short[self.t_rule]}-{short[self.u_rule]}"


REGULAR_REGULAR = Variant("regular", "regular")
REGULAR_DUAL = Variant("regular", "dual")
DUAL_REGULAR = Variant("dual", "regular")
DUAL_DUAL = Variant("dual", "dual")
VARIANTS = (REGULAR_REGULAR, REGULAR_DUAL, DUAL_REGULAR, DUAL_DUAL)


def parse_variant(name: str) -> Variant:
    for variant in VARIANTS:
        if variant.name == name:
            return variant
    raise ValueError(f"unknown variant {name!r} (expected one of "
                     f"{', '.join(v.name for v in VARIANTS)})")


def variant_profile(variant: Variant) -> StrictnessProfile:
    """Strictness axes of the tableau class each variant produces.

    A regular t-rule keeps t's weakly increasing in rows and strict in
    columns; the dual t-rule flips that.  Dually for the u-rule with the roles
    of rows and columns exchanged.
    """
    t_axis = "columns" if variant.t_rule == "regular" else "rows"
    u_axis = "rows" if variant.u_rule == "regular" else "columns"
    return StrictnessProfile(t_strict_in=t_axis, u_strict_in=u_axis)


@dataclass(frozen=True)
class PendingAction:
    """An element waiting to be inserted into a specific row or column."""

    element: Letter
    axis: str  # "row" or "column"
    index: int

    def __post_init__(self) -> None:
        if self.axis not in ("row", "column"):
            raise ValueError(f"axis must be 'row' or 'column': {self.axis!r}")
        if self.index < 1:
            raise ValueError("target index must be positive")


@dataclass(frozen=True)
class Step:
    """One settle-or-bump placement.

    ``state`` is the tableau right after the placement; a displaced occupant
    is carried in ``bumped`` and is absent from the state until its own step.
    """

    index: int
    state: Tableau
    settled_cell: Cell
    bumped: PendingAction | None
    letter_ordinal: int


@dataclass(frozen=True)
class InsertionTrace:
    """Per-letter path lengths plus a compact log of every placement.

    Each log entry is ``(row, col, rank, bumped_rank)``: the 1-based cell a
    placement filled, the shuffle rank of the element placed there, and the
    rank it displaced (None when the element settled in a new cell).  ``order``
    maps ranks back to letters.  ``steps`` replays the log into ``Step``
    snapshots the first time it is read and keeps them; ``total`` and
    ``path_lengths`` never build them.  Traces compare equal when they hold
    the same log under the same order.

    A trace from ``insert_word`` holds its word's ranks, shuffle and variant
    instead: the first read of ``path_lengths`` or ``log`` (and so of
    ``total``, ``steps``, equality, hash or repr) re-inserts the ranks once
    with a log and keeps the result.  Filling keeps those ranks and always
    gives the same values, so two readers that fill one trace at once agree.
    """

    path_lengths: tuple[int, ...]
    log: tuple[tuple[int, int, int, int | None], ...]
    order: tuple[Letter, ...]

    def __post_init__(self) -> None:
        if sum(self.path_lengths) != len(self.log):
            raise ValueError("path lengths must sum to the step count")

    @classmethod
    def _deferred(cls, ranks: tuple[int, ...], shuffle: Shuffle, variant: Variant):
        """A trace of the insertion of ``ranks`` that is filled on first read."""
        trace = object.__new__(cls)
        object.__setattr__(trace, "order", shuffle.order)
        object.__setattr__(trace, "_recipe", (ranks, shuffle, variant))
        return trace

    def __getattr__(self, name: str):
        # reached only while a deferred trace lacks path_lengths and log
        if name not in ("path_lengths", "log"):
            raise AttributeError(name)
        ranks, shuffle, variant = self._recipe
        filled = InsertionTrace._of_lane(_Lane(shuffle, variant), ranks)
        object.__setattr__(self, "path_lengths", filled.path_lengths)
        object.__setattr__(self, "log", filled.log)
        return vars(self)[name]

    @classmethod
    def _of_lane(cls, lane: _Lane, ranks: Iterable[int]) -> InsertionTrace:
        """The trace of inserting ``ranks`` into a logged lane, emptied and
        filled by ``_walk``, which checks the diagram; the lane holds the
        insertion afterwards."""
        next(_walk((tuple(map(lane.letter.__getitem__, ranks)),), [lane]))
        # each letter's path ends with its settle, the one placement that bumps nothing
        ends = [s for s, (_, _, _, y) in enumerate(lane.log, 1) if y is None]
        lengths = tuple(b - a for a, b in zip([0] + ends, ends))
        return cls(lengths, tuple(lane.log), lane.shuffle.order)

    @property
    def total(self) -> int:
        return len(self.log)

    @cached_property
    def steps(self) -> tuple[Step, ...]:
        return _replay(Tableau(), self.log, self.path_lengths, self.order)

    def state_after(self, r: int) -> Tableau:
        """The tableau immediately after step r (1-based)."""
        if not 1 <= r <= self.total:
            raise IndexError(f"step index {r} out of range 1..{self.total}")
        return self.steps[r - 1].state


@dataclass(frozen=True)
class InsertionResult:
    p: Tableau
    q: RecordingTableau
    trace: InsertionTrace


def _pending_action(letter: Letter, row: int, col: int) -> PendingAction:
    """The action of a letter waiting to enter: a t at ``row``, a u at ``col``."""
    if letter.kind == "t":
        return PendingAction(letter, "row", row)
    return PendingAction(letter, "column", col)


# The rank core.  Letters are replaced by their shuffle ranks, and P is held
# as rank lists for its rows and for its columns, updated together.  Rows and
# columns stay weakly increasing in rank, so every search is one bisection.

# per rule: the bump search, the first entry > x (regular) or >= x (dual),
# and the displacement search that reverses it, one past the rightmost
# entry < x (regular) or <= x (dual)
_SEARCH = {"regular": (bisect_right, bisect_left), "dual": (bisect_left, bisect_right)}

Log = list[tuple[int, int, int, int | None]]


def _ranks_of(letters: Iterable[Letter], shuffle: Shuffle) -> list[int]:
    try:
        return list(map(shuffle.ranks.__getitem__, letters))
    except KeyError as exc:
        raise ValueError(f"letter {exc.args[0]} outside alphabet {shuffle.alphabet}") from None


def _valid_grid(p: Tableau, shuffle: Shuffle, strict: list[bool], invalid: str):
    """The rows and the columns of p as rank lists, each letter mapped once,
    once p passes ``is_valid`` under the per-rank table ``strict``; else
    raises ``invalid``.  A foreign letter is "not in" the alphabet, or
    "outside" it for a lone cell, which ``is_valid`` accepts."""
    get = shuffle.ranks.__getitem__
    try:
        rows = [list(map(get, row)) for row in p.rows]
    except KeyError as exc:
        where = "outside" if p.size == 1 else "is not in"
        raise ValueError(f"letter {exc.args[0]} {where} alphabet {shuffle.alphabet}") from None
    return _rank_grid(rows, strict, invalid)


def _rank_grid(rows: list[list[int]], strict: list[bool], invalid: str):
    """``rows`` and the columns they make, once the rank rows pass
    ``_valid_ranks`` under ``strict``; else raises ``invalid``."""
    if not _valid_ranks(rows, strict):
        raise ValueError(invalid)
    cols: list[list[int]] = [[] for _ in rows[0]] if rows else []
    for row in rows:
        for col, x in zip(cols, row):
            col.append(x)
    return rows, cols


def _insert_rank(
    rows: list[list[int]],
    cols: list[list[int]],
    x: int,
    is_t: list[bool],
    find_t,
    find_u,
    log: Log | None,
) -> int:
    """Insert rank x, logging each placement unless ``log`` is None; returns
    the new cell's row, 0-based.

    A t searches row i and a u column j; a bumped t moves down a row and a
    bumped u right a column.  Without a log, a run of x's is one bisection.
    """
    nrows, ncols = len(rows), len(cols)
    i = j = 0
    while True:
        if is_t[x]:
            row = rows[i] if i < nrows else ()
            j = find_t(row, x)
            if j == len(row):
                break
            col = cols[j]
        else:
            col = cols[j] if j < ncols else ()
            i = find_u(col, x)
            if i == len(col):
                break
            row = rows[i]
        y = row[j]
        if log is not None:
            log.append((i + 1, j + 1, x, y))
        elif y == x:  # a dual bump that changes no cell: pass the run of x
            if is_t[x]:
                i = bisect_right(col, x, i)
            else:
                j = bisect_right(row, x, j)
            continue
        row[j] = col[i] = x
        if is_t[y]:
            i += 1
        else:
            j += 1
        x = y
    # x settles at the end of row i, which is also the end of column j
    if i == nrows:
        rows.append([x])
    else:
        rows[i].append(x)
    if j == ncols:
        cols.append([x])
    else:
        cols[j].append(x)
    if log is not None:
        log.append((i + 1, j + 1, x, None))
    return i


def _replay(
    start: Tableau,
    log: Sequence[tuple[int, int, int, int | None]],
    path_lengths: Sequence[int],
    order: tuple[Letter, ...],
) -> tuple[Step, ...]:
    """Rebuild the Step snapshots of a placement log, starting from ``start``."""
    rows = [list(row) for row in start.rows]
    ordinals = (m for m, length in enumerate(path_lengths, 1) for _ in range(length))
    steps = []
    for index, ((r, c, x, y), m) in enumerate(zip(log, ordinals), 1):
        letter = order[x]
        if r > len(rows):
            rows.append([letter])
        elif c > len(rows[r - 1]):
            rows[r - 1].append(letter)
        else:
            rows[r - 1][c - 1] = letter
        bumped = None if y is None else _pending_action(order[y], r + 1, c + 1)
        # unchecked: the letters come from the order, and each state is a
        # diagram, since a bump keeps the shape and a settle fills a corner
        state = Tableau._of(tuple(tuple(row) for row in rows))
        steps.append(Step(index, state, (r, c), bumped, m))
    return tuple(steps)


class _Lane:
    """Insertion under one (shuffle, variant), held on shuffle ranks.

    ``rows`` and ``cols`` are P's rank rows and columns, ``qrows`` Q's rows
    and ``log`` the placements so far, or None in a lane built with
    ``logged=False``, which keeps no log and jumps runs of equal entries.
    ``rank`` maps alphabet indices to the shuffle's ranks, ``letter`` maps
    ranks back, ``is_t`` says which ranks hold t-letters, and ``strict`` is
    ``is_valid``'s per-rank strictness table.  ``find_t``/``find_u`` are the
    variant's bump searches, ``back_t``/``back_u`` the reverse searches.
    Every lane is filled from empty only by ``_walk``, which records each
    new cell in Q and steps a logged lane from word to word, taking letters
    back off the log.  ``marks`` holds each letter's log length before its
    steps, or is None with the log, so an unlogged lane can never take a
    letter back: the walk starts it afresh on a word that drops letters.  A
    lane with a ``bound`` pushes only the ranks <= bound, so it holds the
    insertion of the restricted word (its Q records their positions in the
    whole word, and every letter has a mark).  ``bad`` is the number of the
    first letter still held whose settle left a row longer than the row
    above it, or None.
    """

    __slots__ = (
        "shuffle", "bound", "rank", "letter", "is_t", "find_t", "find_u", "back_t",
        "back_u", "strict", "rows", "cols", "qrows", "log", "marks", "bad",
    )

    def __init__(
        self, shuffle: Shuffle, variant: Variant, bound: int | None = None, logged: bool = True
    ) -> None:
        self.shuffle = shuffle
        self.bound = shuffle.alphabet.size - 1 if bound is None else bound
        k = shuffle.alphabet.k
        self.letter = [x.index - 1 if x.kind == "t" else k + x.index - 1 for x in shuffle.order]
        self.rank = sorted(range(len(self.letter)), key=self.letter.__getitem__)
        self.is_t = [x.kind == "t" for x in shuffle.order]
        self.find_t, self.back_t = _SEARCH[variant.t_rule]
        self.find_u, self.back_u = _SEARCH[variant.u_rule]
        self.strict = _strict_in_rows(shuffle, variant_profile(variant))
        self.rows, self.cols, self.qrows = [], [], []
        self.log, self.marks = ([], []) if logged else (None, None)
        self.bad = None

    def clear(self) -> None:
        """Empty the lane in place, so lists a walk has bound stay the lane's."""
        self.rows.clear()
        self.cols.clear()
        self.qrows.clear()
        if self.log is not None:
            self.log.clear()
            self.marks.clear()
        self.bad = None

    def tableau(self) -> Tableau:
        """P as a ``Tableau`` of letters, built unchecked: its letters come
        from the shuffle's order, so the diagram rule is the one check
        ``Tableau`` makes that P can fail, and ``_walk``, which filled the
        lane, has already checked the rows against it."""
        get = self.shuffle.order.__getitem__
        return Tableau._of(tuple(tuple(map(get, row)) for row in self.rows))

    def result(self, trace: InsertionTrace) -> InsertionResult:
        """P and Q as the lane holds them, with ``trace``; Q, whose labels
        are positive ints and whose rows are as long as P's, is built
        unchecked once P passes."""
        p = self.tableau()
        return InsertionResult(p, RecordingTableau._of(tuple(map(tuple, self.qrows))), trace)


def _check_diagrams(lanes: Iterable[_Lane]) -> None:
    """The diagram check that building each lane's P as a Tableau makes.

    A settle grows one row of a diagram, which can only break the rule
    against the row above; a lane none of whose held settles did is skipped.
    """
    for lane in lanes:
        if lane.bad is not None:
            _check_diagram(lane.rows)


def _common_prefix(a, b) -> int:
    """The length of the longest common prefix of two sequences."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _walk(words: Iterable[tuple[int, ...]], lanes: list[_Lane]):
    """Insert each alphabet-index word under every lane, starting from the
    prefix it shares with the word before.

    Empties the lanes first.  Yields each word once every lane holds its
    insertion and has passed the diagram check.  Per word, a logged lane
    takes back the letters after the shared prefix, newest placement first;
    an unlogged lane has no log to take them back by, so a word that drops
    letters starts it afresh, and a word that only extends the one before
    continues it.  Each lane then inserts the new letters, recording each
    new cell in Q, so a reader copies whatever it keeps.  In product order
    over alphabet indices this makes one insertion per node of the word
    trie, (k+l) + (k+l)^2 + ... + (k+l)^n per logged lane, instead of
    n (k+l)^n.  This is the one place that fills a lane from empty, for a
    single word too; each lane's lists and tables are bound once per call.
    """
    held: tuple[int, ...] = ()
    for lane in lanes:
        lane.clear()
    parts = [
        (lane, lane.rows, lane.cols, lane.qrows, lane.log, lane.marks, lane.rank, lane.is_t,
         lane.find_t, lane.find_u, lane.bound)
        for lane in lanes
    ]
    for word in words:
        shared = _common_prefix(held, word)
        dropped = len(held) > shared
        fresh = word[shared:]
        for lane, rows, cols, qrows, log, marks, rank, is_t, find_t, find_u, top in parts:
            m, letters = shared, fresh
            if dropped:
                if log is None:  # no log to take letters back by
                    lane.clear()
                    m, letters = 0, word
                else:
                    start = marks[shared]
                    del marks[shared:]
                    while len(log) > start:
                        r, c, _, y = log.pop()
                        r -= 1
                        c -= 1
                        if y is None:  # the letter's new cell: the last of its row and column
                            rows[r].pop()
                            cols[c].pop()
                            qrows[r].pop()
                            if not rows[r]:
                                rows.pop()
                                qrows.pop()
                            if not cols[c]:
                                cols.pop()
                        else:
                            rows[r][c] = cols[c][r] = y
                    if lane.bad is not None and lane.bad > shared:
                        lane.bad = None
            for a in letters:
                m += 1
                if log is not None:
                    marks.append(len(log))
                x = rank[a]
                if x > top:
                    continue
                i = _insert_rank(rows, cols, x, is_t, find_t, find_u, log)
                if i == len(qrows):
                    qrows.append([m])
                else:
                    qrows[i].append(m)
                    if i and len(rows[i]) > len(rows[i - 1]) and lane.bad is None:
                        lane.bad = m
        _check_diagrams(lanes)
        held = word
        yield word


def insert_letter(
    p: Tableau, x: Letter, shuffle: Shuffle, variant: Variant
) -> tuple[Tableau, tuple[Step, ...]]:
    """Insert a single letter into a valid tableau; returns the result and steps."""
    (rank,) = _ranks_of((x,), shuffle)
    lane = _Lane(shuffle, variant)
    lane.rows, lane.cols = _valid_grid(
        p, shuffle, lane.strict, "tableau is not valid for this shuffle and variant"
    )
    _insert_rank(lane.rows, lane.cols, rank, lane.is_t, lane.find_t, lane.find_u, lane.log)
    steps = _replay(p, lane.log, (len(lane.log),), shuffle.order)
    return steps[-1].state, steps


def insert_word(v: Word, shuffle: Shuffle, variant: Variant) -> InsertionResult:
    """Insert a word letter by letter, recording where each new cell appears.

    P and Q are computed here, without a step log; the trace keeps the word's
    ranks and logs their insertion only when it is first read.
    """
    ranks = _ranks_of(v, shuffle)
    lane = _Lane(shuffle, variant, logged=False)
    next(_walk((tuple(map(lane.letter.__getitem__, ranks)),), [lane]))
    return lane.result(InsertionTrace._deferred(tuple(ranks), shuffle, variant))


def _insert_traced(v: Word, shuffle: Shuffle, variant: Variant) -> InsertionResult:
    """``insert_word`` for a caller that reads the trace: one insertion that
    keeps a log gives P, Q and the filled trace."""
    lane = _Lane(shuffle, variant)
    return lane.result(InsertionTrace._of_lane(lane, _ranks_of(v, shuffle)))
