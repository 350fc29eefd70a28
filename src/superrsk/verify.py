"""Exhaustive desk-scale checkers for the library's documented claims.

Each grid checker runs every case in a parameter grid (or a seeded sample),
collects replayable failures, and returns a Report.  Single-case predicates
are exposed separately so individual instances can be replayed.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Iterable, NamedTuple

from .alphabet import (
    Alphabet,
    Letter,
    Shuffle,
    adjacent_transposition,
    all_shuffles,
)
from .bijection import change_shuffle, reverse_word, standardize_u
from .insertion import (
    REGULAR_DUAL,
    REGULAR_REGULAR,
    VARIANTS,
    InsertionResult,
    InsertionTrace,
    PendingAction,
    Variant,
    Word,
    _pending_action,
    _ranks_of,
    all_words,
    insert_word,
    variant_profile,
)
from .schur import enumerate_ssyt, enumerate_syt, hook_schur, partitions, rsk_counting_identity
from .tableau import (
    Cell,
    RecordingTableau,
    Shape,
    Tableau,
    classify_regions,
    content_type,
    is_standard,
    is_subtableau,
    is_valid,
    region2_components,
)

__all__ = [
    "Report",
    "CaseFailure",
    "Sample",
    "Alignment",
    "AlignmentError",
    "states_equivalent",
    "region2_stats",
    "align_traces",
    "check_shape_invariance",
    "check_path_monotonicity",
    "check_cell_monotonicity",
    "check_restriction_subtableau",
    "check_region1_agreement",
    "check_dual_regular_agreement",
    "check_standardization_mimicry",
    "check_weight_preserving_bijection",
    "check_path_monotonicity_grid",
    "check_cell_monotonicity_grid",
    "check_restriction_subtableau_grid",
    "check_region1_agreement_grid",
    "check_trace_alignment_grid",
    "check_dual_regular_agreement_grid",
    "check_standardization_mimicry_grid",
    "check_round_trip_grid",
    "check_weight_preserving_bijection_grid",
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
        if self.count < 1:
            raise ValueError(f"sample count must be positive, got {self.count}")


Mode = str | Sample  # "exhaustive" or a Sample


# ---------------------------------------------------------------------------
# intermediate-state equivalence and trace alignment


State = tuple[Tableau, PendingAction | None]


def region2_stats(
    tab: Tableau, shuffle: Shuffle, pair: tuple[Letter, Letter]
) -> dict[frozenset, tuple[int, int]]:
    """Per-component (t-count, u-count) census of the pair region."""
    regions = classify_regions(tab, shuffle, pair)
    stats = {}
    for comp in region2_components(regions):
        nt = sum(1 for cell in comp if tab.entry(*cell) == pair[0])
        nu = sum(1 for cell in comp if tab.entry(*cell) == pair[1])
        stats[comp] = (nt, nu)
    return stats


def _states(trace: InsertionTrace) -> list[State]:
    """Pair each step's tableau with the action that the next step performs."""
    steps = trace.steps
    out: list[State] = []
    for i, step in enumerate(steps):
        if i + 1 == len(steps):
            pending = None
        elif step.bumped is not None:
            pending = step.bumped
        else:
            nxt = steps[i + 1]
            elem = nxt.state.entry(*nxt.settled_cell)
            if elem.kind == "t":
                pending = PendingAction(elem, "row", nxt.settled_cell[0])
            else:
                pending = PendingAction(elem, "column", nxt.settled_cell[1])
        out.append((step.state, pending))
    return out


def _sim(
    state_a: State,
    state_b: State,
    shuffle_a: Shuffle,
    shuffle_b: Shuffle,
    pair: tuple[Letter, Letter],
) -> bool:
    tab_a, pending_a = state_a
    tab_b, pending_b = state_b
    regions_a = classify_regions(tab_a, shuffle_a, pair)
    regions_b = classify_regions(tab_b, shuffle_b, pair)
    for label in (1, 3):
        side_a = {cell: tab_a.entry(*cell) for cell, lab in regions_a.items() if lab == label}
        side_b = {cell: tab_b.entry(*cell) for cell, lab in regions_b.items() if lab == label}
        if side_a != side_b:
            return False
    cells_a = {cell for cell, lab in regions_a.items() if lab == 2}
    cells_b = {cell for cell, lab in regions_b.items() if lab == 2}
    if cells_a != cells_b:
        return False
    ti = pair[0]
    for comp in region2_components(regions_a):
        count_a = sum(1 for cell in comp if tab_a.entry(*cell) == ti)
        count_b = sum(1 for cell in comp if tab_b.entry(*cell) == ti)
        if count_a != count_b:
            return False
    return pending_a == pending_b


def states_equivalent(
    state_a: State, state_b: State, shuffle_a: Shuffle, shuffle_b: Shuffle
) -> bool:
    """Equivalence of intermediate states under adjacent shuffles.

    Requires identical cells-and-entries outside the swapped pair, identical
    pair-region cells with matching per-component t-counts, and equal pending
    actions (both terminal counts as equal).
    """
    pair = adjacent_transposition(shuffle_a, shuffle_b)
    if pair is None:
        raise ValueError("shuffles must be adjacent (differ on exactly one mixed pair)")
    return _sim(state_a, state_b, shuffle_a, shuffle_b, pair)


class AlignmentError(Exception):
    """No step alignment with equivalent matched states exists."""


@dataclass(frozen=True)
class Alignment:
    """Matched step indices into two traces; increments are (1,1), (1,2), (2,1)."""

    pairs: tuple[tuple[int, int], ...]
    witness_count: int


_INCREMENTS = ((1, 1), (1, 2), (2, 1))


def _signatures(trace: InsertionTrace, shuffle: Shuffle, pair: tuple[Letter, Letter]) -> list:
    """Each step's state in the form ``_sim`` compares, read off the placement log.

    A signature holds the cells' ranks under ``shuffle`` with the pair's two
    ranks masked, the t_i-count of each region-2 component, and the pending
    action.  An adjacent transposition keeps every other letter's rank, so
    masked cells are equal exactly when the region-1 entries, the region-3
    entries and the region-2 cells agree.
    """
    order, log = trace.order, trace.log
    rank = _ranks_of(order, shuffle)
    ti = shuffle.rank(pair[0])
    lo = min(ti, shuffle.rank(pair[1]))
    cells: dict[Cell, int] = {}
    out = []
    for s, (r, c, x, y) in enumerate(log):
        cells[(r, c)] = rank[x]
        if y is not None:
            pending = _pending_action(order[y], r + 1, c + 1)
        elif s + 1 < len(log):
            nr, nc, nx, _ = log[s + 1]
            pending = _pending_action(order[nx], nr, nc)
        else:
            pending = None
        masked = {cell: -1 if lo <= e <= lo + 1 else e for cell, e in cells.items()}
        components = region2_components({cell: 2 for cell, e in masked.items() if e < 0})
        counts = {comp: sum(cells[cell] == ti for cell in comp) for comp in components}
        out.append((masked, counts, pending))
    return out


def align_traces(
    trace_a: InsertionTrace,
    shuffle_a: Shuffle,
    trace_b: InsertionTrace,
    shuffle_b: Shuffle,
) -> Alignment:
    """Breadth-first search for a step alignment whose matched states are equivalent.

    Starts at (1, 1), advances by the three allowed increments, and must end
    at the final step of both traces.  The witness count is the number of
    distinct alignments through equivalent matched pairs.  States are
    compared as in ``states_equivalent``, on signatures read from the traces'
    placement logs, so no ``Step`` snapshot is built.
    """
    pair = adjacent_transposition(shuffle_a, shuffle_b)
    if pair is None:
        raise ValueError("shuffles must be adjacent (differ on exactly one mixed pair)")
    sigs_a = _signatures(trace_a, shuffle_a, pair)
    sigs_b = _signatures(trace_b, shuffle_b, pair)
    sa, sb = len(sigs_a), len(sigs_b)
    if sa == 0 and sb == 0:
        return Alignment((), 1)
    if sa == 0 or sb == 0:
        raise AlignmentError("traces have different emptiness")

    def ok(p: int, q: int) -> bool:
        return sigs_a[p - 1] == sigs_b[q - 1]

    if not ok(1, 1):
        raise AlignmentError("initial states are not equivalent")
    target = (sa, sb)
    parent: dict[tuple[int, int], tuple[int, int] | None] = {(1, 1): None}
    queue = deque([(1, 1)])
    while queue:
        p, q = queue.popleft()
        for dp, dq in _INCREMENTS:
            np_, nq = p + dp, q + dq
            if np_ > sa or nq > sb or (np_, nq) in parent:
                continue
            if ok(np_, nq):
                parent[(np_, nq)] = (p, q)
                queue.append((np_, nq))
    if target not in parent:
        raise AlignmentError(f"no alignment reaches ({sa}, {sb})")
    path = []
    node: tuple[int, int] | None = target
    while node is not None:
        path.append(node)
        node = parent[node]
    path.reverse()

    counts: dict[tuple[int, int], int] = {(1, 1): 1}
    for node in sorted(parent, key=lambda pq: (pq[0] + pq[1], pq[0])):
        if node == (1, 1):
            continue
        counts[node] = sum(
            counts.get((node[0] - dp, node[1] - dq), 0) for dp, dq in _INCREMENTS
        )
    return Alignment(tuple(path), counts[target])


# ---------------------------------------------------------------------------
# single-case predicates


def check_path_monotonicity(result: InsertionResult) -> bool:
    """Bumped elements never drift outward.

    Within one letter's steps, a t bumped from (i, j) acts in row i+1 at a
    column <= j, and a u bumped from (i, j) acts in column j+1 at a row <= i.
    """
    log, order = result.trace.log, result.trace.order
    for (r, c, _, y), (nr, nc, _, _) in zip(log, log[1:]):
        if y is None:
            continue
        if order[y].kind == "t":
            if nr != r + 1 or nc > c:
                return False
        else:
            if nc != c + 1 or nr > r:
                return False
    return True


def check_cell_monotonicity(result: InsertionResult, shuffle: Shuffle) -> bool:
    """Across consecutive states, occupied cells persist and entries only shrink.

    Each placement writes one cell and leaves the others as they were, so it
    is enough that no write to an occupied cell raises that cell's rank.
    """
    rank = _ranks_of(result.trace.order, shuffle)
    cells: dict[Cell, int] = {}
    for r, c, x, _ in result.trace.log:
        if cells.get((r, c), rank[x]) < rank[x]:
            return False
        cells[(r, c)] = rank[x]
    return True


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
    return std.unmap_tableau(relabelled.p) == original.p


# ---------------------------------------------------------------------------
# reports


class _GridFailure(NamedTuple):
    """A finding about a grid as a whole; a failure, but not a case."""

    failure: CaseFailure


def _report(name: str, params: dict, cases: Iterable, stats: dict | None = None) -> Report:
    """Run the cases and return their Report.

    Each item of ``cases`` is one case: ``None`` when it passed, else its
    ``CaseFailure``.  A ``_GridFailure`` is recorded without counting a case.
    ``stats`` may be filled while the cases run.
    """
    if params.get("n", 0) < 0:
        raise ValueError("n must be non-negative")
    start = time.perf_counter()
    failures: list[CaseFailure] = []
    count = 0
    for outcome in cases:
        if isinstance(outcome, _GridFailure):
            failures.append(outcome.failure)
            continue
        count += 1
        if outcome is not None:
            failures.append(outcome)
    elapsed = time.perf_counter() - start
    return Report(name, params, count, tuple(failures), elapsed, stats or {})


def _word_grid(
    name: str, alphabet: Alphabet, n: int, mode: Mode, case_iter, extra_params: dict | None = None
) -> Report:
    """Run ``case_iter(word)`` over every word of length n, or a seeded sample."""
    params = {"k": alphabet.k, "l": alphabet.l, "n": n, **(extra_params or {})}
    if mode == "exhaustive":
        params["mode"] = "exhaustive"
        words = all_words(alphabet, n)
    elif isinstance(mode, Sample):
        params.update(mode="sample", samples=mode.count, seed=mode.seed)
        rng = random.Random(mode.seed)
        letters = alphabet.letters()
        words = (Word(tuple(rng.choice(letters) for _ in range(n))) for _ in range(mode.count))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _report(name, params, (outcome for word in words for outcome in case_iter(word)))


def _per_shuffle(alphabet: Alphabet, holds, variant: str, expected: str, actual: str):
    """Word cases, one per shuffle s, that pass when ``holds(word, s)``."""
    shuffles = all_shuffles(alphabet)

    def cases(word: Word):
        for s in shuffles:
            if holds(word, s):
                yield None
            else:
                yield CaseFailure(
                    word=str(word),
                    shuffles=str(s),
                    variant=variant,
                    expected=expected,
                    actual=actual,
                )

    return cases


def check_shape_invariance(
    alphabet: Alphabet,
    n: int,
    variant: Variant = REGULAR_REGULAR,
    mode: Mode = "exhaustive",
) -> Report:
    """Shape and recording tableau agree across every pair of shuffles."""
    shuffles = all_shuffles(alphabet)

    def cases(word: Word):
        results = [insert_word(word, s, variant) for s in shuffles]
        for i, j in combinations(range(len(shuffles)), 2):
            ri, rj = results[i], results[j]
            if ri.p.shape == rj.p.shape and ri.q == rj.q:
                yield None
            else:
                yield CaseFailure(
                    word=str(word),
                    shuffles=f"{shuffles[i]} | {shuffles[j]}",
                    variant=variant.name,
                    expected="equal shapes and recording tableaux",
                    actual=f"shapes {ri.p.shape} vs {rj.p.shape}, "
                    f"q equal: {ri.q == rj.q}",
                )

    return _word_grid(
        "shape-invariance", alphabet, n, mode, cases, {"variant": variant.name}
    )


def check_path_monotonicity_grid(
    alphabet: Alphabet, n: int, variant: Variant = REGULAR_REGULAR, mode: Mode = "exhaustive"
) -> Report:
    cases = _per_shuffle(
        alphabet,
        lambda word, s: check_path_monotonicity(insert_word(word, s, variant)),
        variant.name,
        "monotone bump targets",
        "a bumped element drifted outward",
    )
    return _word_grid(
        "path-monotonicity", alphabet, n, mode, cases, {"variant": variant.name}
    )


def check_cell_monotonicity_grid(
    alphabet: Alphabet, n: int, variant: Variant = REGULAR_REGULAR, mode: Mode = "exhaustive"
) -> Report:
    cases = _per_shuffle(
        alphabet,
        lambda word, s: check_cell_monotonicity(insert_word(word, s, variant), s),
        variant.name,
        "entries only shrink in place",
        "a cell emptied or its entry grew",
    )
    return _word_grid(
        "cell-monotonicity", alphabet, n, mode, cases, {"variant": variant.name}
    )


def check_restriction_subtableau_grid(
    alphabet: Alphabet, n: int, mode: Mode = "exhaustive"
) -> Report:
    shuffles = all_shuffles(alphabet)
    letters = alphabet.letters()

    def cases(word: Word):
        for s in shuffles:
            big = insert_word(word, s, REGULAR_REGULAR).p
            for x in letters:
                if is_subtableau(_restricted_p(word, s, x, REGULAR_REGULAR), big):
                    yield None
                else:
                    yield CaseFailure(
                        word=str(word),
                        shuffles=str(s),
                        variant=REGULAR_REGULAR.name,
                        expected=f"restriction to letters <= {x} is a subtableau",
                        actual="subtableau containment failed",
                    )

    return _word_grid("restriction-subtableau", alphabet, n, mode, cases)


def _adjacent_pairs(shuffles: list[Shuffle]) -> list[tuple[Shuffle, Shuffle]]:
    pairs = []
    for a, b in combinations(shuffles, 2):
        if adjacent_transposition(a, b) is not None:
            pairs.append((a, b))
    return pairs


def check_region1_agreement_grid(
    alphabet: Alphabet, n: int, mode: Mode = "exhaustive"
) -> Report:
    pairs = _adjacent_pairs(all_shuffles(alphabet))

    def cases(word: Word):
        for a, b in pairs:
            if check_region1_agreement(word, a, b):
                yield None
            else:
                yield CaseFailure(
                    word=str(word),
                    shuffles=f"{a} | {b}",
                    variant=REGULAR_REGULAR.name,
                    expected="identical low-letter subtableaux",
                    actual="low regions differ",
                )

    return _word_grid("region1-agreement", alphabet, n, mode, cases)


def check_trace_alignment_grid(
    alphabet: Alphabet, n: int, mode: Mode = "exhaustive"
) -> Report:
    """Every adjacent-shuffle pair admits a step alignment on every word."""
    pairs = _adjacent_pairs(all_shuffles(alphabet))
    witness_histogram: dict[int, int] = {}

    def cases(word: Word):
        for a, b in pairs:
            trace_a = insert_word(word, a, REGULAR_REGULAR).trace
            trace_b = insert_word(word, b, REGULAR_REGULAR).trace
            try:
                alignment = align_traces(trace_a, a, trace_b, b)
            except AlignmentError as exc:
                yield CaseFailure(
                    word=str(word),
                    shuffles=f"{a} | {b}",
                    variant=REGULAR_REGULAR.name,
                    expected="an alignment with equivalent matched states",
                    actual=str(exc),
                )
                continue
            witness_histogram[alignment.witness_count] = (
                witness_histogram.get(alignment.witness_count, 0) + 1
            )
            yield None

    report = _word_grid("trace-alignment", alphabet, n, mode, cases)
    report.stats["witness_counts"] = {
        str(k): v for k, v in sorted(witness_histogram.items())
    }
    return report


def check_dual_regular_agreement_grid(
    alphabet: Alphabet, n: int, mode: Mode = "exhaustive"
) -> Report:
    """Regular and dual u-rules agree on words with pairwise distinct u's."""
    per_shuffle = _per_shuffle(
        alphabet,
        check_dual_regular_agreement,
        "reg-reg vs reg-dual",
        "identical insertion and recording tableaux",
        "outputs differ",
    )

    def cases(word: Word):
        us = [a for a in word if a.kind == "u"]
        return per_shuffle(word) if len(us) == len(set(us)) else ()

    return _word_grid("dual-regular-agreement", alphabet, n, mode, cases)


def _transport_cases(
    source: list[Tableau],
    target_count: int,
    alphabet: Alphabet,
    a: Shuffle,
    b: Shuffle,
    q: RecordingTableau,
    variant: Variant,
):
    """Transport each filling in ``source`` once from a to b, q held fixed.

    Yields one case per filling, then the findings about the whole map, and
    returns the images in source order.
    """

    def failure(expected: str, actual: str) -> CaseFailure:
        return CaseFailure(
            word="",
            shuffles=f"{a} -> {b}",
            variant=variant.name,
            expected=expected,
            actual=actual,
        )

    profile = variant_profile(variant)
    images = []
    for tab in source:
        image = change_shuffle(tab, q, a, b, variant)
        images.append(image)
        problems = []
        if image.shape != q.shape:
            problems.append(f"shape changed to {image.shape}")
        if not is_valid(image, b, profile):
            problems.append("image not valid under target order")
        if content_type(tab, alphabet) != content_type(image, alphabet):
            problems.append("content changed")
        if problems:
            yield failure("valid, content-preserving image", "; ".join(problems))
        else:
            yield None
    if len(set(images)) != len(images):
        yield _GridFailure(failure("injective map", "two fillings share an image"))
    if len(source) != target_count:
        counts = f"{len(source)} vs {target_count}"
        yield _GridFailure(failure("equal counts on both sides", counts))
    return images


def check_weight_preserving_bijection(
    shape: Shape,
    alphabet: Alphabet,
    a: Shuffle,
    b: Shuffle,
    q: RecordingTableau,
    variant: Variant = REGULAR_REGULAR,
) -> Report:
    """Transporting every filling of the shape from order a to order b is a
    content-preserving bijection onto the fillings valid under b."""
    shape = tuple(shape)
    if q.shape != shape:
        raise ValueError(f"recording tableau shape {q.shape} does not match {shape}")
    if not is_standard(q):
        raise ValueError("recording tableau is not standard")
    params = {
        "shape": list(shape),
        "k": alphabet.k,
        "l": alphabet.l,
        "a": str(a),
        "b": str(b),
        "q": [list(row) for row in q.rows],
        "variant": variant.name,
    }

    def cases():
        source = enumerate_ssyt(shape, alphabet, a, variant)
        target = enumerate_ssyt(shape, alphabet, b, variant)
        yield from _transport_cases(source, len(target), alphabet, a, b, q, variant)

    return _report("weight-preserving-bijection", params, cases())


def check_weight_preserving_bijection_grid(alphabet: Alphabet, n: int) -> Report:
    """All shapes of n cells, all standard recorders, all ordered shuffle pairs."""
    shuffles = all_shuffles(alphabet)
    distinct_maps: dict[str, int] = {}

    def cases():
        for shape in partitions(n):
            recorders = enumerate_syt(shape)
            fillings = {s: enumerate_ssyt(shape, alphabet, s, REGULAR_REGULAR) for s in shuffles}
            for a in shuffles:
                for b in shuffles:
                    if a == b:
                        continue
                    # the source list is fixed, so its image tuple names the map
                    maps = set()
                    for q in recorders:
                        images = yield from _transport_cases(
                            fillings[a], len(fillings[b]), alphabet, a, b, q, REGULAR_REGULAR
                        )
                        maps.add(tuple(images))
                    key = f"{shape}"
                    distinct_maps[key] = max(distinct_maps.get(key, 0), len(maps))

    params = {"k": alphabet.k, "l": alphabet.l, "n": n}
    stats = {"distinct_maps_by_shape": distinct_maps}
    return _report("weight-preserving-bijection", params, cases(), stats)


def check_hook_schur_invariance(alphabet: Alphabet, n: int) -> Report:
    """The weight generating polynomial of each shape ignores the shuffle."""
    shuffles = all_shuffles(alphabet)

    def cases():
        for shape in partitions(n):
            reference = hook_schur(shape, alphabet, shuffles[0])
            for s in shuffles[1:]:
                other = hook_schur(shape, alphabet, s)
                if other == reference:
                    yield None
                else:
                    yield CaseFailure(
                        word=f"shape {shape}",
                        shuffles=f"{shuffles[0]} | {s}",
                        variant=REGULAR_REGULAR.name,
                        expected=reference.render(),
                        actual=other.render(),
                    )

    params = {"k": alphabet.k, "l": alphabet.l, "n": n}
    return _report("hook-schur-invariance", params, cases())


def check_counting_identity(alphabet: Alphabet, n: int) -> Report:
    """Sum over shapes of #fillings x #standard fillings equals (k+l)^n,
    for every shuffle and every variant."""

    def cases():
        for s in all_shuffles(alphabet):
            for variant in VARIANTS:
                outcome = rsk_counting_identity(alphabet, n, s, variant)
                if outcome["equal"]:
                    yield None
                else:
                    yield CaseFailure(
                        word=f"n={n}",
                        shuffles=str(s),
                        variant=variant.name,
                        expected=str(outcome["rhs"]),
                        actual=str(outcome["lhs"]),
                    )

    params = {"k": alphabet.k, "l": alphabet.l, "n": n}
    return _report("counting-identity", params, cases())


def check_round_trip_grid(
    alphabet: Alphabet, n: int, variant: Variant, mode: Mode = "exhaustive"
) -> Report:
    """reverse(insert(v)) recovers v for every word in the grid."""
    shuffles = all_shuffles(alphabet)

    def cases(word: Word):
        for s in shuffles:
            result = insert_word(word, s, variant)
            back = reverse_word(result.p, result.q, s, variant)
            if back == word:
                yield None
            else:
                yield CaseFailure(
                    word=str(word),
                    shuffles=str(s),
                    variant=variant.name,
                    expected=str(word),
                    actual=str(back),
                )

    return _word_grid("round-trip", alphabet, n, mode, cases, {"variant": variant.name})


def check_standardization_mimicry_grid(
    alphabet: Alphabet, n: int, mode: Mode = "exhaustive"
) -> Report:
    cases = _per_shuffle(
        alphabet,
        check_standardization_mimicry,
        REGULAR_DUAL.name,
        "relabelled insertion matches cell for cell",
        "mimicry failed",
    )
    return _word_grid("standardization-mimicry", alphabet, n, mode, cases)
