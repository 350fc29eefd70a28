"""Young-diagram shapes, letter tableaux, recording tableaux, validity, regions.

Cells are 1-based (row, column) pairs.  A tableau's rows are stored densely;
row lengths must be weakly decreasing, so the occupied cells of every column
form a prefix of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .alphabet import Letter, Shuffle, _check_letters, parse_letter

__all__ = [
    "Cell",
    "Shape",
    "Tableau",
    "RecordingTableau",
    "StrictnessProfile",
    "RegionMap",
    "Component",
    "check_shape",
    "is_valid",
    "is_standard",
    "classify_regions",
    "region2_components",
    "tableau_to_json",
    "tableau_from_json",
    "recording_to_json",
    "recording_from_json",
    "render_tableau",
    "render_recording",
]

Cell = tuple[int, int]
Shape = tuple[int, ...]
RegionMap = dict[Cell, int]
Component = frozenset[Cell]


def check_shape(rows: Iterable[int]) -> Shape:
    """Validate a partition: positive integer parts, weakly decreasing."""
    shape = tuple(rows)
    for r in shape:
        if type(r) is not int:  # a bool is an int to isinstance
            raise ValueError(f"shape parts must be integers, got {r!r}")
    if any(r < 1 for r in shape):
        raise ValueError(f"shape parts must be positive: {shape}")
    if any(a < b for a, b in zip(shape, shape[1:])):
        raise ValueError(f"shape parts must be weakly decreasing: {shape}")
    return shape


def _check_diagram(rows: tuple[tuple, ...]) -> None:
    lengths = [len(row) for row in rows]
    if any(length == 0 for length in lengths):
        raise ValueError("tableau rows must be non-empty")
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        raise ValueError(f"row lengths must be weakly decreasing: {lengths}")


class _Diagram:
    """Shape and entry lookup shared by letter and recording tableaux."""

    rows: tuple[tuple, ...]

    @classmethod
    def _of(cls, rows: tuple[tuple, ...]):
        """The tableau of ``rows``, taken as they are: a tuple of non-empty
        tuples of entries of the right type, weakly shortening."""
        tab = object.__new__(cls)
        object.__setattr__(tab, "rows", rows)
        return tab

    @property
    def shape(self) -> Shape:
        return tuple(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    def entry(self, row: int, col: int):
        """Entry at 1-based (row, col), or None outside the diagram."""
        if row < 1 or col < 1 or row > len(self.rows) or col > len(self.rows[row - 1]):
            return None
        return self.rows[row - 1][col - 1]


@dataclass(frozen=True)
class Tableau(_Diagram):
    """A letter-filled Young diagram."""

    rows: tuple[tuple[Letter, ...], ...] = ()

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        _check_letters(rows, "tableau")
        object.__setattr__(self, "rows", rows)
        _check_diagram(rows)

    def items(self) -> Iterator[tuple[Cell, Letter]]:
        for r, row in enumerate(self.rows, 1):
            for c, letter in enumerate(row, 1):
                yield (r, c), letter


@dataclass(frozen=True)
class RecordingTableau(_Diagram):
    """An integer-filled Young diagram recording cell creation order."""

    rows: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        for row in rows:
            for e in row:
                if type(e) is not int:  # a bool is an int to isinstance
                    raise ValueError(f"recording entries must be integers, got {e!r}")
        object.__setattr__(self, "rows", rows)
        _check_diagram(rows)
        if any(e < 1 for row in rows for e in row):
            raise ValueError("recording entries must be positive")


@dataclass(frozen=True)
class StrictnessProfile:
    """Which axis each letter kind must strictly increase along."""

    t_strict_in: str  # "rows" or "columns"
    u_strict_in: str

    def __post_init__(self) -> None:
        for axis in (self.t_strict_in, self.u_strict_in):
            if axis not in ("rows", "columns"):
                raise ValueError(f"strictness axis must be 'rows' or 'columns': {axis!r}")


def is_valid(tab: Tableau, shuffle: Shuffle, profile: StrictnessProfile) -> bool:
    """Weakly increasing rows and columns, with per-kind strictness.

    Equal entries are always the same letter, so the full-axis strictness of
    the t's (resp. u's) reduces to forbidding equal neighbours of that kind
    along the strict axis.  Entries are compared by shuffle rank; a tableau of
    at most one cell has no neighbours and is valid, whatever its letter.
    """
    if tab.size <= 1:
        return True
    return _valid_ranks(_rank_rows(tab, shuffle), _strict_in_rows(shuffle, profile))


def _rank_rows(tab: Tableau, shuffle: Shuffle) -> list[list[int]]:
    """The rows of tab as lists of shuffle ranks, each row mapped in one pass;
    a letter the shuffle does not order raises."""
    get = shuffle.ranks.__getitem__
    try:
        return [list(map(get, row)) for row in tab.rows]
    except KeyError as exc:
        raise ValueError(f"letter {exc.args[0]} is not in alphabet {shuffle.alphabet}") from None


def _from_ranks(rows, shuffle: Shuffle) -> Tableau:
    """The ``Tableau`` of rank rows under the shuffle, built unchecked: its
    letters come from the shuffle's order, and the caller's rows are a diagram."""
    get = shuffle.order.__getitem__
    return Tableau._of(tuple(tuple(map(get, row)) for row in rows))


def _strict_in_rows(shuffle: Shuffle, profile: StrictnessProfile) -> list[bool]:
    """Whether each rank's letter must strictly increase along rows (else columns)."""
    axis = {"t": profile.t_strict_in, "u": profile.u_strict_in}
    return [axis[x.kind] == "rows" for x in shuffle.order]


def _valid_ranks(rows, strict_in_rows: list[bool]) -> bool:
    """``is_valid`` on rank rows: ranks weakly increase along rows and columns,
    and equal neighbours sit only along the axis their letter is not strict in."""
    for row in rows:
        for a, b in zip(row, row[1:]):
            if b < a or (a == b and strict_in_rows[a]):
                return False
    for upper, lower in zip(rows, rows[1:]):
        for a, b in zip(upper, lower):
            if b < a or (a == b and not strict_in_rows[a]):
                return False
    return True


def is_standard(rec: RecordingTableau) -> bool:
    """Entries are exactly 1..n, rows increase left-to-right, columns top-down."""
    return _standard_cells(rec.rows) is not None


def _standard_cells(rows) -> list[Cell] | None:
    """``is_standard`` in one pass over a diagram's rows: each label's 0-based
    cell, label m's at index m - 1, or None if the filling is not standard."""
    n = sum(map(len, rows))
    cells: list = [None] * n
    above = [0] * len(rows[0]) if rows else []  # above every cell of the first row
    for i, row in enumerate(rows):
        left = 0
        for j, (m, up) in enumerate(zip(row, above)):  # rows weakly shorten
            if not left < m <= n or up >= m or cells[m - 1] is not None:
                return None
            cells[m - 1] = (i, j)
            left = m
        above = row
    return cells


def _check_pair(pair: tuple[Letter, Letter]) -> tuple[Letter, Letter]:
    ti, uj = pair
    if ti.kind != "t" or uj.kind != "u":
        raise ValueError(f"pair must be (t_i, u_j), got ({ti}, {uj})")
    return ti, uj


def classify_regions(
    tab: Tableau, shuffle: Shuffle, pair: tuple[Letter, Letter]
) -> RegionMap:
    """Label each cell 1 (entry below both pair letters), 2 (a pair letter), 3 (above).

    The pair must occupy consecutive ranks of the shuffle, so "below both" and
    "above both" exhaust the other letters.
    """
    ti, uj = _check_pair(pair)
    rt, ru = shuffle.rank(ti), shuffle.rank(uj)
    if abs(rt - ru) != 1:
        raise ValueError(f"{ti} and {uj} are not order-adjacent in {shuffle}")
    lo = min(rt, ru)
    regions: RegionMap = {}
    for r, row in enumerate(_rank_rows(tab, shuffle), 1):
        for c, x in enumerate(row, 1):  # the pair holds ranks lo and lo + 1
            regions[r, c] = 1 if x < lo else 2 if x <= lo + 1 else 3
    return regions


def region2_components(regions: RegionMap) -> frozenset[Component]:
    """Maximal side-connected components of the label-2 cells."""
    cells = {cell for cell, label in regions.items() if label == 2}
    components = set()
    seen: set[Cell] = set()
    for start in sorted(cells):
        if start in seen:
            continue
        comp: set[Cell] = set()
        stack = [start]
        while stack:
            r, c = stack.pop()
            if (r, c) in comp:
                continue
            comp.add((r, c))
            for nbr in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nbr in cells and nbr not in comp:
                    stack.append(nbr)
        seen |= comp
        components.add(frozenset(comp))
    return frozenset(components)


def _is_prefix_grid(small, big) -> bool:
    """Whether small's diagram fits inside big's with the entries agreeing there,
    on rows: each row of small begins the same row of big."""
    if len(small) > len(big):
        return False
    for r, row in enumerate(small):
        # a row longer than big's differs from the slice of big it is held to
        if row != big[r][: len(row)]:
            return False
    return True


def tableau_to_json(tab: Tableau) -> dict:
    return {"rows": [[letter.name for letter in row] for row in tab.rows]}


def tableau_from_json(data: dict) -> Tableau:
    return Tableau(tuple(tuple(parse_letter(x) for x in row) for row in data["rows"]))


def recording_to_json(rec: RecordingTableau) -> dict:
    return {"rows": [list(row) for row in rec.rows]}


def recording_from_json(data: dict) -> RecordingTableau:
    return RecordingTableau(data["rows"])


def render_tableau(tab: Tableau) -> str:
    return "\n".join(" ".join(letter.name for letter in row) for row in tab.rows)


def render_recording(rec: RecordingTableau) -> str:
    return "\n".join(" ".join(str(e) for e in row) for row in rec.rows)
