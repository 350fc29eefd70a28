"""Exhaustive desk-scale checkers for the library's documented claims.

Each grid checker runs every case in a parameter grid (or a seeded sample),
collects replayable failures, and returns a Report.  The word grids insert
every word under every shuffle on one rank-level walk of the word trie; a
failure names its word and shuffles, so the case can be replayed on its own.
"""

from __future__ import annotations

import random
import threading
import time
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from itertools import combinations, product
from operator import ne
from typing import Iterable, Iterator

from .alphabet import (
    Alphabet,
    Letter,
    Shuffle,
    _format,
    adjacent_transposition,
    all_shuffles,
)
from .bijection import _INVALID_P, _check_recording, _relabel, _reverse_ranks, standardize_u
from .insertion import (
    REGULAR_DUAL,
    REGULAR_REGULAR,
    VARIANTS,
    InsertionTrace,
    Variant,
    Word,
    _Lane,
    _common_prefix,
    _indices_of,
    _rank_grid,
    _walk,
)
from .schur import (
    _check_length, _fill_ranks, enumerate_syt, hook_schur, partitions, rsk_counting_identity,
)
from .tableau import (
    Cell,
    RecordingTableau,
    Shape,
    _is_prefix_grid,
    _valid_ranks,
    region2_components,
)

__all__ = [
    "Report",
    "CaseFailure",
    "Sample",
    "Alignment",
    "AlignmentError",
    "align_traces",
    "check_shape_invariance",
    "check_path_monotonicity_grid",
    "check_cell_monotonicity_grid",
    "check_restriction_subtableau_grid",
    "check_region1_agreement_grid",
    "check_trace_alignment_grid",
    "check_dual_regular_agreement_grid",
    "check_standardization_mimicry_grid",
    "check_round_trip_grid",
    "check_weight_preserving_bijection_grid",
    "check_converse_round_trip_grid",
    "check_hook_schur_invariance",
    "check_counting_identity",
]


@dataclass(frozen=True)
class CaseFailure:
    """One failing case; the fields are enough to replay it."""

    word: str
    shuffles: str
    variant: str
    expected: str
    actual: str

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class Report:
    check_name: str
    parameters: dict
    cases_run: int
    failures: tuple[CaseFailure, ...]
    elapsed: float
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.cases_run > 0 and not self.failures

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_name,
            "params": self.parameters,
            "cases": self.cases_run,
            "failures": [f.to_json_dict() for f in self.failures],
            "stats": self.stats,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }


@dataclass(frozen=True)
class Sample:
    """Seeded random sampling of the word grid."""

    count: int
    seed: int

    def __post_init__(self) -> None:
        for value in (self.count, self.seed):
            if type(value) is not int:  # a bool is an int to isinstance
                raise ValueError(f"sample count and seed must be integers, got {value!r}")
        if self.count < 1:
            raise ValueError(f"sample count must be positive, got {self.count}")


Mode = str | Sample  # "exhaustive" or a Sample


# ---------------------------------------------------------------------------
# trace alignment


class AlignmentError(Exception):
    """No step alignment with equivalent matched states exists."""


@dataclass(frozen=True)
class Alignment:
    """Matched step indices into two traces; increments are (1,1), (1,2), (2,1).
    Of ``witness_count`` alignments, ``pairs`` is the one ``align_traces``
    reads back from the final steps through first reached predecessors."""

    pairs: tuple[tuple[int, int], ...]
    witness_count: int


_INCREMENTS = ((1, 1), (1, 2), (2, 1))


# taken by every miss of a _States table, which rechecks under it before it
# numbers a new entry by the table's length; hits read the dicts without it
_INTERNING = threading.Lock()


class _States:
    """Step states interned for the signature streams over one alphabet.

    A state is its filled cells in sorted order and each cell's rank with
    the swapped pair masked: -2 for t_i, -1 for u_j.
    Its id is reached from the state before by the transition (state, row,
    column, value), so a step costs one lookup once that transition has been
    taken.  Each new state's class is computed once: its cells with the
    pair's two values merged and the t_i-count of each region-2 component,
    which is what two equivalent states share, and what a stream pairs with
    its pending action as a step's signature.  Every entry depends only on
    these ints, so one table serves every ``lemma2.15`` grid call over an
    alphabet (``_step_states``); an edge is published only after its state's
    ``cls`` entry exists.
    """

    __slots__ = ("edges", "known", "states", "cls", "classes", "components")

    def __init__(self) -> None:
        self.edges: dict[tuple[int, int, int, int], int] = {}
        self.states: list[tuple[tuple, tuple]] = [((), ())]  # per state: (cells, values)
        self.known = {self.states[0]: 0}
        self.cls = [0]  # per state: its class
        self.classes: dict[tuple, int] = {((), (), ()): 0}
        self.components: dict[tuple, tuple] = {}  # region-2 cells -> their components

    def after(self, key: tuple[int, int, int, int]) -> int:
        """The state that a transition (state, row, column, value) not taken
        before leads to: writing the value in that cell of the state."""
        with _INTERNING:
            new = self.edges.get(key)
            if new is not None:  # another thread took it first
                return new
            state, r, c, value = key
            cells, values = self.states[state]
            cell = (r, c)
            i = bisect_left(cells, cell)
            if i < len(cells) and cells[i] == cell:
                values = values[:i] + (value,) + values[i + 1:]
            else:
                cells = cells[:i] + (cell,) + cells[i:]
                values = values[:i] + (value,) + values[i:]
            new = self.known.get((cells, values))
            if new is None:
                # classified first, so an error leaves no state without a class
                cls = self._classify(cells, values)
                new = self.known[cells, values] = len(self.states)
                self.states.append((cells, values))
                self.cls.append(cls)
            self.edges[key] = new
        return new

    def _classify(self, cells: tuple, values: tuple) -> int:
        region2 = tuple(x for x, v in zip(cells, values) if v < 0)
        components = self.components.get(region2)
        if components is None:
            components = self.components[region2] = tuple(
                region2_components(dict.fromkeys(region2, 2))
            )
        value = dict(zip(cells, values))
        counts = tuple(sum(value[x] == -2 for x in comp) for comp in components)
        masked = tuple(-1 if v < 0 else v for v in values)
        return self.classes.setdefault((cells, masked, counts), len(self.classes))


_KEPT_ALPHABETS = 4


@lru_cache(maxsize=_KEPT_ALPHABETS)
def _step_states(alphabet: Alphabet) -> _States:
    """The step states of ``alphabet``, kept for the process and shared by
    every ``lemma2.15`` grid over it, whose states at each n are a fixed
    finite set.  ``align_traces`` takes a table of its own per call, which
    its caller's traces cannot grow past the call."""
    return _States()


class _Stream:
    """One lane's steps in the form the alignment compares, for each adjacent
    pair the lane is in, brought to the lane's log in place by ``follow``.

    ``letter`` and ``is_t`` are the lane's tables.  ``pending`` holds each
    step's pending action as (alphabet index, row of a t or column of a u),
    or None after the last step; it does not depend on the pair.  Per pair,
    ``ids`` holds each step's state and ``sigs`` its signature: the tuple of
    its state's class in the shared ``states`` (the cells' ranks under the
    shuffle with the pair's two ranks masked, and the t_i-count of each
    region-2 component) and its pending action.  An adjacent transposition
    keeps every other letter's rank, so masked cells are equal exactly when
    the region-1 entries, the region-3 entries and the region-2 cells agree.
    """

    __slots__ = ("letter", "is_t", "states", "pending", "value", "ids", "sigs")

    def __init__(self, lane: _Lane, pairs: Iterable[tuple], states: _States) -> None:
        self.letter, self.is_t, self.states = lane.letter, lane.is_t, states
        self.pending: list[tuple[int, int] | None] = []
        self.value, self.ids, self.sigs = {}, {}, {}
        rank = lane.shuffle.rank
        for pair in pairs:
            ti = rank(pair[0])
            lo = min(ti, rank(pair[1]))
            self.value[pair] = [
                -2 if e == ti else -1 if lo <= e <= lo + 1 else e for e in range(len(self.is_t))
            ]
            self.ids[pair], self.sigs[pair] = [], []

    def follow(self, log, kept: int) -> None:
        """Bring every list to ``log``, whose first ``kept`` steps, a whole
        number of letters, are those of the log followed before: re-sign the
        last kept step if its pending action changed, then place each later
        step's element."""
        pending, states, cls = self.pending, self.states, self.states.cls
        del pending[kept:]
        changed = kept
        if kept:  # a settle, whose pending action is the next letter's entry
            action = self._pending(log, kept - 1)
            if action != pending[-1]:
                pending[-1] = action
                changed = kept - 1
        pending += [self._pending(log, s) for s in range(kept, len(log))]
        for pair, value in self.value.items():
            ids, sigs = self.ids[pair], self.sigs[pair]
            del ids[kept:], sigs[changed:]
            for s in range(changed, kept):
                sigs.append((cls[ids[s]], pending[s]))
            state = ids[-1] if ids else 0
            for s in range(kept, len(log)):
                r, c, x, _ = log[s]
                key = (state, r, c, value[x])
                state = states.edges.get(key)
                if state is None:
                    state = states.after(key)
                ids.append(state)
                sigs.append((cls[state], pending[s]))

    def _pending(self, log, s: int) -> tuple[int, int] | None:
        r, c, _, y = log[s]
        if y is not None:  # the bumped element enters the next row or column
            return self.letter[y], r + 1 if self.is_t[y] else c + 1
        if s + 1 < len(log):
            r, c, x, _ = log[s + 1]
            return self.letter[x], r if self.is_t[x] else c
        return None


def _witnesses(sigs_a: list, sigs_b: list) -> list[dict[int, int]]:
    """Per step p of the first stream, 0-based, each step q of the second
    that alignments through equivalent matched pairs reach, with their number.

    One forward pass: each reached pair, row by row, pushes its count along
    the increments to each successor whose signatures match."""
    na, nb = len(sigs_a), len(sigs_b)
    table: list[dict[int, int]] = [{} for _ in range(na)]
    if na and nb and sigs_a[0] == sigs_b[0]:
        table[0][0] = 1
    for p, row in enumerate(table):
        for q, count in row.items():
            for dp, dq in _INCREMENTS:
                np_, nq = p + dp, q + dq
                if np_ < na and nq < nb and sigs_a[np_] == sigs_b[nq]:
                    succ = table[np_]
                    succ[nq] = succ.get(nq, 0) + count
    return table


def _witness_count(table: list, sa: int, sb: int) -> int:
    """The witness count of two traces of sa and sb steps from their table,
    or the AlignmentError that says why there is none."""
    if sa == 0 or sb == 0:
        if sa or sb:
            raise AlignmentError("traces have different emptiness")
        return 1
    if not table[0]:
        raise AlignmentError("initial states are not equivalent")
    count = table[sa - 1].get(sb - 1)
    if not count:
        raise AlignmentError(f"no alignment reaches ({sa}, {sb})")
    return count


def _stream_count(sigs_a: list, sigs_b: list) -> int:
    """The witness count of two signature streams, or the AlignmentError that
    says why there is none: what ``_witness_count`` reads off their table.

    Equal streams with no two neighbouring signatures equal need no table:
    their one witness is the diagonal.  A path that left it would first
    reach a step pair (p, p+1) or (p+1, p), and there the signatures match
    only if two neighbouring ones are equal."""
    if sigs_a == sigs_b and all(map(ne, sigs_a, sigs_a[1:])):
        return 1
    return _witness_count(_witnesses(sigs_a, sigs_b), len(sigs_a), len(sigs_b))


def align_traces(
    trace_a: InsertionTrace,
    shuffle_a: Shuffle,
    trace_b: InsertionTrace,
    shuffle_b: Shuffle,
) -> Alignment:
    """A step alignment whose matched states are equivalent, with its witness count.

    Alignments start at (1, 1), advance by the three allowed increments, and
    end at the final step of both traces.  The witness count is the number of
    distinct alignments through equivalent matched pairs: equal cells and
    entries outside the swapped pair, equal pair-region cells with equal
    t-counts per component, and equal pending actions, compared through
    ``_witnesses`` on one ``_Stream`` per trace for the swapped pair, as the
    ``lemma2.15`` grid compares its lanes, over a step-state table of the
    call's own.  ``pairs`` steps back from the final steps to the first
    reached predecessor in ``_INCREMENTS`` order.  Each trace's letters must
    be in the alphabet, and then its order must be its shuffle's.
    """
    pair = adjacent_transposition(shuffle_a, shuffle_b)
    if pair is None:
        raise ValueError("shuffles must be adjacent (differ on exactly one mixed pair)")
    states = _States()
    streams = []
    for trace, shuffle in ((trace_a, shuffle_a), (trace_b, shuffle_b)):
        _indices_of(trace.order, shuffle.alphabet)  # refuses foreign letters
        if trace.order != shuffle.order:
            raise ValueError(f"trace order {_format(trace.order)} is not shuffle {shuffle}")
        # a stream reads only its lane's shuffle tables, which no variant changes
        stream = _Stream(_Lane(shuffle, REGULAR_REGULAR), (pair,), states)
        stream.follow(trace.log, 0)
        streams.append(stream.sigs[pair])
    table = _witnesses(*streams)
    sa, sb = map(len, streams)
    count = _witness_count(table, sa, sb)
    path, p, q = [], sa, sb  # 1-based; (1, 1) has no predecessor
    while p:
        path.append((p, q))
        p, q = next(((p - dp, q - dq) for dp, dq in _INCREMENTS
                     if p > dp and q - dq - 1 in table[p - dp - 1]), (0, 0))
    return Alignment(tuple(reversed(path)), count)


# ---------------------------------------------------------------------------
# placement-log checks


def _paths_ok(log, is_t: list[bool]) -> bool:
    """Bumped elements never drift outward, on a placement log; ``is_t`` is per rank.

    Within one letter's steps, a t bumped from (i, j) acts in row i+1 at a
    column <= j, and a u bumped from (i, j) acts in column j+1 at a row <= i.
    """
    for (r, c, _, y), (nr, nc, _, _) in zip(log, log[1:]):
        if y is None:
            continue
        if is_t[y]:
            if nr != r + 1 or nc > c:
                return False
        else:
            if nc != c + 1 or nr > r:
                return False
    return True


def _cells_ok(placements) -> bool:
    """Across consecutive states, occupied cells persist and entries only shrink,
    on (row, col, rank) placements.

    Each placement writes one cell and leaves the others as they were, so it
    is enough that no write to an occupied cell raises that cell's rank.
    """
    cells: dict[Cell, int] = {}
    for r, c, x in placements:
        if cells.get((r, c), x) < x:
            return False
        cells[(r, c)] = x
    return True


# ---------------------------------------------------------------------------
# reports


def _report(
    name: str,
    alphabet: Alphabet,
    n: int,
    run,
    params: dict | None = None,
    stats: dict | None = None,
) -> Report:
    """Run the cases and return their Report, whose parameters are k, l, n and
    then ``params``.

    ``run()`` returns the case count and the failures: each failed case,
    which is one of the cases, and each finding about the grid as a whole,
    which counts no case.  ``stats`` may be filled meanwhile.
    """
    _check_length(n)
    start = time.perf_counter()
    count, failures = run()
    elapsed = time.perf_counter() - start
    params = {"k": alphabet.k, "l": alphabet.l, "n": n, **(params or {})}
    return Report(name, params, count, tuple(failures), elapsed, stats or {})


def _words(alphabet: Alphabet, n: int, mode: Mode) -> Iterator[tuple[int, ...]]:
    """Words as alphabet-index tuples: all of length n, or the seeded sample."""
    if mode == "exhaustive":
        yield from product(range(alphabet.size), repeat=n)
    else:
        rng = random.Random(mode.seed)
        letters = range(alphabet.size)
        for _ in range(mode.count):
            yield tuple(rng.choice(letters) for _ in range(n))


def _word_grid(
    name: str, alphabet: Alphabet, n: int, mode: Mode, lanes: list[_Lane], judge,
    params: dict | None = None, keep=None,
) -> Report:
    """Walk every word of length n, or a seeded sample, through the lanes and
    judge each one.

    Words are alphabet-index tuples, in product order over alphabet indices
    when exhaustive; where ``keep`` is given, only the words it accepts are
    walked.
    ``judge(word)``, called once every lane holds the word, returns the
    word's case count and its failed cases as (shuffles, variant, expected,
    actual) records.
    """
    params = dict(params or {})
    if mode == "exhaustive":
        params["mode"] = "exhaustive"
    elif isinstance(mode, Sample):
        params.update(mode="sample", samples=mode.count, seed=mode.seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    def run():
        count, failures = 0, []
        words = _words(alphabet, n, mode)
        for word in _walk(words if keep is None else filter(keep, words), lanes):
            cases, failed = judge(word)
            count += cases
            if failed:
                text = _word_text(alphabet, word)
                failures += [CaseFailure(text, *record) for record in failed]
        return count, failures

    return _report(name, alphabet, n, run, params)


def _lanes(alphabet: Alphabet, *variants: Variant) -> list[_Lane]:
    """One lane per shuffle and variant, shuffles outermost."""
    return [_Lane(s, v) for s in all_shuffles(alphabet) for v in variants]


def _word_text(alphabet: Alphabet, word: Iterable[int]) -> str:
    """An alphabet-index word written as ``str(Word)`` writes it."""
    letters = alphabet.letters()
    return ",".join(letters[i].name for i in word)


def _per_lane(
    name: str, alphabet: Alphabet, n: int, variant: Variant, mode: Mode, holds, expected: str,
    actual: str,
) -> Report:
    """The word grid of one case per shuffle that passes when ``holds(lane)``."""
    lanes = _lanes(alphabet, variant)

    def judge(word):
        failed = [lane for lane in lanes if not holds(lane)]
        return len(lanes), [(str(lane.shuffle), variant.name, expected, actual) for lane in failed]

    return _word_grid(name, alphabet, n, mode, lanes, judge, {"variant": variant.name})


def check_shape_invariance(
    alphabet: Alphabet,
    n: int,
    variant: Variant = REGULAR_REGULAR,
    mode: Mode = "exhaustive",
) -> Report:
    """Shape and recording tableau agree across every pair of shuffles.

    A pair passes when its lanes' keys (P's shape, Q's rows) are equal, so a
    word whose keys all equal the first lane's passes every pair at once."""
    lanes = _lanes(alphabet, variant)
    pairs = list(combinations(range(len(lanes)), 2))

    def judge(word):
        keys = [(tuple(map(len, lane.rows)), lane.qrows) for lane in lanes]
        if keys.count(keys[0]) == len(keys):
            return len(pairs), ()
        return len(pairs), [
            (
                f"{lanes[i].shuffle} | {lanes[j].shuffle}", variant.name,
                "equal shapes and recording tableaux",
                f"shapes {keys[i][0]} vs {keys[j][0]}, q equal: {keys[i][1] == keys[j][1]}",
            )
            for i, j in pairs
            if keys[i] != keys[j]
        ]

    return _word_grid(
        "shape-invariance", alphabet, n, mode, lanes, judge, {"variant": variant.name}
    )


def check_path_monotonicity_grid(
    alphabet: Alphabet, n: int, variant: Variant = REGULAR_REGULAR, mode: Mode = "exhaustive"
) -> Report:
    return _per_lane(
        "path-monotonicity", alphabet, n, variant, mode,
        lambda lane: _paths_ok(lane.log, lane.is_t),
        "monotone bump targets", "a bumped element drifted outward",
    )


def check_cell_monotonicity_grid(
    alphabet: Alphabet, n: int, variant: Variant = REGULAR_REGULAR, mode: Mode = "exhaustive"
) -> Report:
    return _per_lane(
        "cell-monotonicity", alphabet, n, variant, mode,
        lambda lane: _cells_ok((r, c, x) for r, c, x, _ in lane.log),
        "entries only shrink in place", "a cell emptied or its entry grew",
    )


def check_restriction_subtableau_grid(
    alphabet: Alphabet, n: int, mode: Mode = "exhaustive"
) -> Report:
    letters = alphabet.letters()
    # per shuffle, one lane per letter x inserting the letters <= x; the
    # lane of the shuffle's largest letter inserts the whole word
    groups = [
        [_Lane(s, REGULAR_REGULAR, s.rank(x)) for x in letters] for s in all_shuffles(alphabet)
    ]
    wholes = [max(group, key=lambda lane: lane.bound) for group in groups]

    def judge(word):
        # the whole word's lane is its own prefix: counted, never compared
        return len(groups) * len(letters), [
            (
                str(full.shuffle), REGULAR_REGULAR.name,
                f"restriction to letters <= {x} is a subtableau", "subtableau containment failed",
            )
            for restricted, full in zip(groups, wholes)
            for x, lane in zip(letters, restricted)
            if lane is not full and not _is_prefix_grid(lane.rows, full.rows)
        ]

    lanes = [lane for group in groups for lane in group]
    return _word_grid("restriction-subtableau", alphabet, n, mode, lanes, judge)


def _adjacent_pairs(lanes: list[_Lane]) -> list[tuple[int, int, tuple[Letter, Letter]]]:
    """Lane index pairs (i < j) one adjacent transposition apart, with the swapped pair."""
    pairs = []
    for i, j in combinations(range(len(lanes)), 2):
        pair = adjacent_transposition(lanes[i].shuffle, lanes[j].shuffle)
        if pair is not None:
            pairs.append((i, j, pair))
    return pairs


def _low_cells(rows: list[list[int]], lo: int) -> dict[Cell, int]:
    """The cells whose rank is below ``lo``: region 1 of a pair at ranks lo, lo+1."""
    return {
        (r, c): x for r, row in enumerate(rows, 1) for c, x in enumerate(row, 1) if x < lo
    }


def check_region1_agreement_grid(
    alphabet: Alphabet, n: int, mode: Mode = "exhaustive"
) -> Report:
    lanes = _lanes(alphabet, REGULAR_REGULAR)
    pairs = [
        (i, j, min(lanes[i].shuffle.rank(ti), lanes[i].shuffle.rank(uj)))
        for i, j, (ti, uj) in _adjacent_pairs(lanes)
    ]

    def judge(word):
        return len(pairs), [
            (
                f"{lanes[i].shuffle} | {lanes[j].shuffle}", REGULAR_REGULAR.name,
                "identical low-letter subtableaux", "low regions differ",
            )
            for i, j, lo in pairs
            if _low_cells(lanes[i].rows, lo) != _low_cells(lanes[j].rows, lo)
        ]

    return _word_grid("region1-agreement", alphabet, n, mode, lanes, judge)


def check_trace_alignment_grid(
    alphabet: Alphabet, n: int, mode: Mode = "exhaustive"
) -> Report:
    """Every adjacent-shuffle pair admits a step alignment on every word.

    Each lane keeps one ``_Stream`` beside the walk, with signatures for
    every adjacent pair it is in, over the alphabet's step states, which stay
    interned for later calls.  Per word the stream follows the lane's log in
    place from the steps of the prefix the walk kept.  Each pair then counts
    its alignments afresh with ``_stream_count``: the exact witness count, or
    ``AlignmentError`` text, that ``align_traces`` gives on the word's
    separate traces, whose ``pairs`` hold one alignment of several the way
    ``Alignment`` says.  A pair of equal streams without repeated
    neighbouring signatures, the common case, is counted without a table.
    """
    witness_histogram: dict[int, int] = {}
    lanes = _lanes(alphabet, REGULAR_REGULAR)
    pairs = _adjacent_pairs(lanes)
    states = _step_states(alphabet)
    streams = [
        _Stream(lane, [pair for i, j, pair in pairs if m in (i, j)], states)
        for m, lane in enumerate(lanes)
    ]
    held: tuple[int, ...] = ()

    def judge(word):
        nonlocal held
        # the walk kept each lane's steps of the prefix shared with the word before
        shared, held = _common_prefix(held, word), word
        for stream, lane in zip(streams, lanes):
            stream.follow(lane.log, lane.marks[shared] if shared < len(word) else len(lane.log))
        failed = []
        for i, j, pair in pairs:
            try:
                count = _stream_count(streams[i].sigs[pair], streams[j].sigs[pair])
            except AlignmentError as exc:
                failed.append((
                    f"{lanes[i].shuffle} | {lanes[j].shuffle}", REGULAR_REGULAR.name,
                    "an alignment with equivalent matched states", str(exc),
                ))
                continue
            witness_histogram[count] = witness_histogram.get(count, 0) + 1
        return len(pairs), failed

    report = _word_grid("trace-alignment", alphabet, n, mode, lanes, judge)
    report.stats["witness_counts"] = {
        str(k): v for k, v in sorted(witness_histogram.items())
    }
    return report


def check_dual_regular_agreement_grid(
    alphabet: Alphabet, n: int, mode: Mode = "exhaustive"
) -> Report:
    """Regular and dual u-rules agree on words with pairwise distinct u's."""
    k = alphabet.k

    def distinct_us(word: tuple[int, ...]) -> bool:
        us = [a for a in word if a >= k]
        return len(us) == len(set(us))

    lanes = _lanes(alphabet, REGULAR_REGULAR, REGULAR_DUAL)
    pairs = list(zip(lanes[::2], lanes[1::2]))

    def judge(word):
        return len(pairs), [
            (
                str(reg.shuffle), "reg-reg vs reg-dual",
                "identical insertion and recording tableaux", "outputs differ",
            )
            for reg, dual in pairs
            if reg.rows != dual.rows or reg.qrows != dual.qrows
        ]

    # every prefix of a kept word is kept, so no prefix with a repeated u is inserted
    return _word_grid(
        "dual-regular-agreement", alphabet, n, mode, lanes, judge, keep=distinct_us
    )


def _reverse_sources(fillings: list[list[list[int]]], recorders: list[list[Cell]], lane: _Lane):
    """Check each filling once and reverse every (q, P) once under the lane's order.

    ``fillings`` holds rank rows under the lane's shuffle, as ``_fill_ranks``
    gives them, and ``recorders`` each recorder's cells by label, as
    ``_recorders`` gives them.  Returns the recovered words, ``words[q][P]``,
    as alphabet indices.
    """
    grids = [_rank_grid(rows, lane.strict, _INVALID_P) for rows in fillings]
    return [[_recovered(rows, cols, cells, lane) for rows, cols in grids] for cells in recorders]


def _recovered(rows, cols, cells: list[Cell], lane: _Lane) -> tuple[int, ...]:
    """The word that (P, Q) reverses to under the lane, as alphabet indices,
    with Q given by its cells by label.

    P's rank rows and columns are copied, so they are left as they were.
    """
    ranks = _reverse_ranks([row[:] for row in rows], [col[:] for col in cols], cells, lane)
    return tuple(map(lane.letter.__getitem__, ranks))


def _content(rows: list[list[int]], lane: _Lane) -> tuple[int, ...]:
    """The sorted content of rank rows under the lane, as alphabet indices."""
    letter = lane.letter
    return tuple(sorted(letter[x] for row in rows for x in row))


def _images(alphabet: Alphabet, n: int, lanes: list[_Lane]) -> list[tuple[dict, list]]:
    """Per lane, the image of every word of length n: ``(ids, props)``, where
    ``ids[word]`` numbers the word's P among the distinct Ps of the lane, and
    ``props[id]`` is that P's (shape, validity under the lane, sorted content
    as alphabet indices), computed once per distinct P.

    One walk of the word trie fills every lane, so each lane makes one
    insertion per trie node and runs the walk's diagram check on each word.
    """
    tables = [(lane, {}, {}) for lane in lanes]  # per lane: word -> id, P -> id
    for word in _walk(_words(alphabet, n, "exhaustive"), lanes):
        for lane, ids, known in tables:
            ids[word] = known.setdefault(tuple(map(tuple, lane.rows)), len(known))
    return [
        (ids, [(tuple(map(len, p)), _valid_ranks(p, lane.strict), _content(p, lane)) for p in known])
        for lane, ids, known in tables
    ]


def _transport_failures(
    images: list[int], props: list, expected: list, target_count: int, failure
) -> list[CaseFailure]:
    """Check one recorder's map from the source fillings to the target.

    ``images`` holds each source filling's image as an id into the target's
    ``props``, and ``expected`` the (shape, True, content) each image must
    have.  Checks one case per source filling, and returns the failed cases,
    then the findings about the whole map.
    """
    failed = []
    for pid, want in zip(images, expected):
        image = props[pid]
        if image == want:
            continue
        (image_shape, valid, image_content), (shape, _, content) = image, want
        problems = []
        if image_shape != shape:
            problems.append(f"shape changed to {image_shape}")
        if not valid:
            problems.append("image not valid under target order")
        if image_content != content:
            problems.append("content changed")
        failed.append(failure("valid, content-preserving image", "; ".join(problems)))
    if len(set(images)) != len(images):
        failed.append(failure("injective map", "two fillings share an image"))
    if len(images) != target_count:
        failed.append(failure("equal counts on both sides", f"{len(images)} vs {target_count}"))
    return failed


def _recorders(shape: Shape) -> tuple[list[RecordingTableau], list[list[Cell]]]:
    """The standard recorders of a shape and, from the reversal's Q guards,
    each one's cells by label."""
    recorders = enumerate_syt(shape)
    return recorders, [_check_recording(shape, q.rows) for q in recorders]


def check_weight_preserving_bijection_grid(alphabet: Alphabet, n: int) -> Report:
    """Transporting every filling from order a to order b with Q held fixed is
    a content-preserving bijection onto the fillings valid under b, for every
    shape of n cells, standard recorder Q and ordered shuffle pair (reg-reg).

    Each (source, recorder, filling) is reversed once, from the filling's
    rank rows.  The image of every word of length n under every target is
    read off one walk of the word trie (``_images``), so a recovered word's
    image is one lookup, and a case compares ids and their stored shape,
    validity and content.  An alphabet with one shuffle has no pair and
    walks nothing.
    """
    shuffles = all_shuffles(alphabet)
    distinct_maps: dict[str, int] = {}

    def run():
        if len(shuffles) < 2:
            return 0, []
        count, failures = 0, []
        lanes = [_Lane(s, REGULAR_REGULAR) for s in shuffles]
        images = _images(alphabet, n, lanes)
        for shape in partitions(n):
            _, recorders = _recorders(shape)
            fillings = [_fill_ranks(shape, s, REGULAR_REGULAR) for s in shuffles]
            for a, lane in enumerate(lanes):
                words = _reverse_sources(fillings[a], recorders, lane)
                expected = [(shape, True, _content(rows, lane)) for rows in fillings[a]]
                for b, (ids, props) in enumerate(images):
                    if a == b:
                        continue
                    failure = partial(
                        CaseFailure, "", f"{shuffles[a]} -> {shuffles[b]}", REGULAR_REGULAR.name
                    )
                    # the source list is fixed, so its image ids name the map
                    maps = set()
                    for q_words in words:
                        q_images = list(map(ids.__getitem__, q_words))
                        count += len(q_images)
                        failures += _transport_failures(
                            q_images, props, expected, len(fillings[b]), failure
                        )
                        maps.add(tuple(q_images))
                    key = f"{shape}"
                    distinct_maps[key] = max(distinct_maps.get(key, 0), len(maps))
        return count, failures

    stats = {"distinct_maps_by_shape": distinct_maps}
    return _report("weight-preserving-bijection", alphabet, n, run, stats=stats)


def check_converse_round_trip_grid(alphabet: Alphabet, n: int) -> Report:
    """insert(reverse(P, Q)) == (P, Q) for every shape of n cells, every
    shuffle, every valid P and every standard Q (reg-reg).

    Per (shape, shuffle, recorder), one walk of an unlogged lane inserts the
    recovered words in turn, each from empty."""

    def run():
        count, failures = 0, []
        for shape in partitions(n):
            recorders, cells = _recorders(shape)
            for s in all_shuffles(alphabet):
                lane = _Lane(s, REGULAR_REGULAR, logged=False)
                fillings = _fill_ranks(shape, s, REGULAR_REGULAR)
                words = _reverse_sources(fillings, cells, lane)
                for q, q_words in zip(recorders, words):
                    q_rows = [list(row) for row in q.rows]
                    count += len(fillings)
                    for rows, word in zip(fillings, _walk(q_words, [lane])):
                        p_same, q_same = lane.rows == rows, lane.qrows == q_rows
                        if not (p_same and q_same):
                            failures.append(CaseFailure(
                                _word_text(alphabet, word), str(s), REGULAR_REGULAR.name,
                                "insertion gives back the reversed (P, Q)",
                                "P differs" if q_same else "Q differs" if p_same
                                else "P and Q differ",
                            ))
        return count, failures

    return _report("converse-round-trip", alphabet, n, run)


def check_hook_schur_invariance(
    alphabet: Alphabet, n: int, variant: Variant = REGULAR_REGULAR
) -> Report:
    """The weight generating polynomial of each shape, under the variant, ignores the shuffle."""
    shuffles = all_shuffles(alphabet)

    def run():
        count, failures = 0, []
        for shape in partitions(n):
            reference = hook_schur(shape, alphabet, shuffles[0], variant)
            count += len(shuffles) - 1
            for s in shuffles[1:]:
                other = hook_schur(shape, alphabet, s, variant)
                if other != reference:
                    failures.append(CaseFailure(
                        f"shape {shape}", f"{shuffles[0]} | {s}", variant.name,
                        reference.render(), other.render(),
                    ))
        return count, failures

    return _report("hook-schur-invariance", alphabet, n, run, {"variant": variant.name})


def check_counting_identity(alphabet: Alphabet, n: int) -> Report:
    """Sum over shapes of #fillings x #standard fillings equals (k+l)^n,
    for every shuffle and every variant."""

    def run():
        count, failures = 0, []
        for s in all_shuffles(alphabet):
            count += len(VARIANTS)
            for variant in VARIANTS:
                outcome = rsk_counting_identity(alphabet, n, s, variant)
                if not outcome["equal"]:
                    failures.append(CaseFailure(
                        f"n={n}", str(s), variant.name, str(outcome["rhs"]), str(outcome["lhs"])
                    ))
        return count, failures

    return _report("counting-identity", alphabet, n, run)


def check_round_trip_grid(
    alphabet: Alphabet, n: int, variant: Variant, mode: Mode = "exhaustive"
) -> Report:
    """reverse(insert(v)) recovers v for every word in the grid."""
    lanes = _lanes(alphabet, variant)

    def judge(word):
        failed = []
        for lane in lanes:
            # reverse_word's guards, on ranks
            cells = _check_recording(tuple(map(len, lane.rows)), lane.qrows)
            if not _valid_ranks(lane.rows, lane.strict):
                raise ValueError(_INVALID_P)
            back = _recovered(lane.rows, lane.cols, cells, lane)
            if back != word:
                failed.append((
                    str(lane.shuffle), variant.name,
                    _word_text(alphabet, word), _word_text(alphabet, back),
                ))
        return len(lanes), failed

    return _word_grid("round-trip", alphabet, n, mode, lanes, judge, {"variant": variant.name})


def check_standardization_mimicry_grid(
    alphabet: Alphabet, n: int, mode: Mode = "exhaustive"
) -> Report:
    """Relabelling repeated u's (``standardize_u``) reproduces the dual
    insertion cell for cell, on every word and shuffle: the original insertion
    is read from the walk, the relabelled word inserted into a lane of its
    derived shuffle, and Q compared, and P on ranks once mapped back.

    The derived shuffle and the map from its ranks back to the shuffle's
    depend on the shuffle and the word's u-counts alone, so they are built
    once per such pair, and the word is relabelled on alphabet indices.  The
    derived shuffles of one word order one alphabet, so one walk inserts the
    relabelled word into all of their lanes."""
    letters = alphabet.letters()
    lanes = _lanes(alphabet, REGULAR_DUAL)
    # u-counts -> per lane, the derived lane and its map, derived rank -> shuffle rank
    keyed: dict[tuple[int, ...], tuple[list[_Lane], list[list[int]]]] = {}

    def judge(word):
        counts, relabelled = _relabel(word, alphabet.k, alphabet.l, "u")
        if counts not in keyed:
            derived, to_ranks = keyed[counts] = [], []
            for lane in lanes:
                s = lane.shuffle
                std = standardize_u(Word(tuple(letters[a] for a in word)), s)
                back = dict(std.source_map)
                derived.append(_Lane(std.shuffle, REGULAR_DUAL, logged=False))
                to_ranks.append([s.ranks[back.get(x, x)] for x in std.shuffle.order])
        derived, to_ranks = keyed[counts]
        next(_walk((relabelled,), derived))
        failed = []
        for lane, rel, to_rank in zip(lanes, derived, to_ranks):
            unmapped = [[to_rank[x] for x in row] for row in rel.rows]
            if rel.qrows != lane.qrows or unmapped != lane.rows:
                failed.append((
                    str(lane.shuffle), REGULAR_DUAL.name,
                    "relabelled insertion matches cell for cell", "mimicry failed",
                ))
        return len(lanes), failed

    return _word_grid("standardization-mimicry", alphabet, n, mode, lanes, judge)
