"""The snapshot reference for trace alignment: states as replayed ``Step`` tableaux.

The library compares intermediate states on signatures read from placement
logs.  These helpers compare them the slow, literal way, on ``Tableau``
snapshots and ``classify_regions``, so the tests can hold the fast path
against the definition of state equivalence under an adjacent swap.
"""

from __future__ import annotations

from superrsk import (
    InsertionTrace,
    Letter,
    PendingAction,
    Shuffle,
    Tableau,
    adjacent_transposition,
    classify_regions,
    region2_components,
)

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
