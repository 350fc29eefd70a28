"""Tableau enumeration, hook Schur polynomials, and counting identities."""

from __future__ import annotations

import threading
from functools import lru_cache
from itertools import product
from math import factorial

from .alphabet import Alphabet, Shuffle
from .insertion import REGULAR_REGULAR, Variant, variant_profile
from .polynomial import Monomial, Polynomial
from .tableau import (
    RecordingTableau,
    Shape,
    Tableau,
    _strict_in_rows,
    check_shape,
)

__all__ = [
    "partitions",
    "enumerate_ssyt",
    "enumerate_syt",
    "count_syt",
    "hook_schur",
    "rsk_counting_identity",
]


def partitions(n: int) -> list[Shape]:
    """All partitions of n in reverse lexicographic order; n=0 gives the empty shape."""
    if type(n) is not int:  # a bool is an int to isinstance
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError("n must be non-negative")
    result: list[Shape] = []

    def extend(prefix: tuple[int, ...], remaining: int, cap: int) -> None:
        if remaining == 0:
            result.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            extend(prefix + (part,), remaining - part, part)

    extend((), n, n)
    return result


def enumerate_ssyt(
    shape: Shape, alphabet: Alphabet, shuffle: Shuffle, variant: Variant
) -> list[Tableau]:
    """All fillings of the shape that are valid for (shuffle, variant).

    The fillings of ``_fill_ranks``, in its order, with each rank mapped to
    its letter.  Shapes the alphabet cannot fill yield an empty list.
    """
    order = shuffle.order
    return [
        Tableau(tuple(tuple(map(order.__getitem__, row)) for row in rows))
        for rows in _fill_ranks(check_shape(shape), shuffle, variant)
    ]


def _fill_ranks(shape: Shape, shuffle: Shuffle, variant: Variant) -> list[list[list[int]]]:
    """The fillings of a checked shape valid for (shuffle, variant), each as
    its rows of shuffle ranks; the empty shape has one filling, with no rows.

    Backtracking fill in row-major order on shuffle ranks, candidates tried
    in rank order, so the output order is deterministic.  A candidate is held
    against its left and upper neighbours by the per-rank strictness table
    that ``is_valid`` reads.  The fill is a loop over a per-cell next-candidate
    array, not a recursion, so a long shape cannot exhaust the stack.
    """
    if not shape:
        return [[]]
    strict_in_rows = _strict_in_rows(shuffle, variant_profile(variant))
    size = len(shuffle.order)
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    last = len(cells) - 1
    grid = [[-1] * length for length in shape]
    nxt = [0] * len(cells)  # per cell: the next rank to try there
    found: list[list[list[int]]] = []
    i = 0
    while i >= 0:
        x = nxt[i]
        if x == size:  # every candidate tried: back to the cell before
            i -= 1
            continue
        nxt[i] = x + 1
        r, c = cells[i]
        grid[r][c] = x
        if i == last:
            found.append([row[:] for row in grid])
            continue
        i += 1
        r, c = cells[i]
        left = grid[r][c - 1] if c else -1
        above = grid[r - 1][c] if r else -1
        # every rank from the larger neighbour up fits, but that neighbour's
        # own rank only along the axis its letter is not strict in
        x = max(left, above)
        if (x == left and strict_in_rows[x]) or (x == above and not strict_in_rows[x]):
            x += 1
        nxt[i] = x
    return found


def enumerate_syt(shape: Shape) -> list[RecordingTableau]:
    """All standard fillings of the shape, by placing 1..n at frontier cells.

    Each value goes, in turn, to the first empty cell of every row whose cell
    above is filled, rows taken top to bottom.  The search is a loop over a
    per-value next-row array, not a recursion, so a long shape cannot exhaust
    the stack.
    """
    shape = check_shape(shape)
    if not shape:
        return [RecordingTableau()]
    n, height = sum(shape), len(shape)
    grid: list[list[int]] = [[0] * length for length in shape]
    filled = [0] * height  # per row: its filled cells, a prefix of the row
    nxt = [0] * (n + 2)  # per value: the next row to try it in
    found: list[RecordingTableau] = []
    value = 1
    while value:
        if value <= n:
            r = nxt[value]
            while r < height and not (
                filled[r] < shape[r] and (r == 0 or filled[r - 1] > filled[r])
            ):
                r += 1
            if r < height:
                grid[r][filled[r]] = value
                filled[r] += 1
                nxt[value] = r + 1
                value += 1
                nxt[value] = 0
                continue
        else:
            found.append(RecordingTableau(tuple(tuple(row) for row in grid)))
        # back to the value before, taking it out of its row
        value -= 1
        if value:
            filled[nxt[value] - 1] -= 1
    return found


def _conjugate(shape: Shape, width: int) -> Shape:
    """Column lengths of a zero-padded shape, padded to width columns."""
    return tuple(sum(1 for length in shape if length > c) for c in range(width))


def count_syt(shape: Shape) -> int:
    """Number of standard fillings, by the hook length product formula."""
    shape = check_shape(shape)
    n = sum(shape)
    if n == 0:
        return 1
    conjugate = _conjugate(shape, shape[0])
    hooks = 1
    for r, length in enumerate(shape):
        for c in range(length):
            hooks *= (length - c) + (conjugate[c] - r) - 1
    return factorial(n) // hooks


def _horizontal_strips(mu: Shape, bound: Shape) -> list[tuple[Shape, int]]:
    """Every nu inside bound with nu/mu a horizontal strip, paired with |nu/mu|.

    mu and bound have equal length (zero-padded).  A horizontal strip puts at
    most one cell in each column, i.e. mu_i <= nu_i <= mu_{i-1}, so each row
    ranges independently of the others.
    """
    caps = bound[:1] + mu[:-1]
    ranges = [range(m, min(b, cap) + 1) for m, b, cap in zip(mu, bound, caps)]
    base = sum(mu)
    return [(nu, sum(nu) - base) for nu in product(*ranges)]


def _removed_strips(nu: Shape) -> list[tuple[Shape, int]]:
    """Every mu with nu/mu a horizontal strip, paired with |nu/mu|.

    nu is zero-padded; each row ranges over nu_{i+1} <= mu_i <= nu_i.
    """
    base = sum(nu)
    ranges = [range(low, high + 1) for low, high in zip(nu[1:] + (0,), nu)]
    return [(mu, base - sum(mu)) for mu in product(*ranges)]


def _build_strips(shape: Shape, kind: str, mu: Shape, outward: bool) -> list:
    """The strips of one kind at the zero-padded sub-shape mu of shape.

    Outward: every nu inside shape with nu/mu a strip.  Inward: every
    sub-shape lambda with mu/lambda a strip.  Each comes paired with the
    strip's size.  Kind "t" is a horizontal strip, the one a regular t adds;
    kind "u" is a vertical strip, the conjugate's horizontal strip.
    """
    if kind == "t":
        return _horizontal_strips(mu, shape) if outward else _removed_strips(mu)
    rows, width = len(shape), (shape[0] if shape else 0)
    flipped = _conjugate(mu, width)
    if outward:
        found = _horizontal_strips(flipped, _conjugate(shape, width))
    else:
        found = _removed_strips(flipped)
    return [(_conjugate(nu, rows), size) for nu, size in found]


# Shapes whose strip tables outlive a call.  A Corollary 4 check walks every
# partition of n under every shuffle (15 shapes at n = 7, 42 at n = 10).
_KEPT_SHAPES = 64
# (k, l, field width) triples whose decoded monomials outlive a call, and
# the monomials kept per triple before the next call empties them.  Six
# letters with exponents summing to 7 give 792 of them.
_KEPT_WIDTHS = 8
_KEPT_TERMS = 4096
# taken by every miss of a strip table, which rechecks under it, then numbers
# the new sub-shapes and grows the lists before it stores the strips; walks
# read the lists without it
_NUMBERING = threading.Lock()


@lru_cache(maxsize=_KEPT_SHAPES)
def _strip_table(shape: Shape) -> tuple[dict[Shape, int], list[Shape], dict]:
    """``(ids, subs, lists)``: the sub-shapes of one shape met so far, numbered
    (zero-padded sub-shape -> int id, and id -> sub-shape) from ``shape``
    (id 0) and the empty shape, and per (kind, outward) a list, indexed by
    id, of each sub-shape's ``(nu_id, size)`` strips, None until built.
    They depend on nothing else, so the walks of every shuffle and variant
    share them, building the lists they ask for under ``_NUMBERING``.
    """
    subs = list(dict.fromkeys((shape, (0,) * len(shape))))
    lists = {(kind, outward): [None] * len(subs) for kind in "tu" for outward in (False, True)}
    return {mu: i for i, mu in enumerate(subs)}, subs, lists


@lru_cache(maxsize=_KEPT_WIDTHS)
def _monomials(k: int, l: int, bits: int) -> dict[int, Monomial]:
    """Packed keys at one (k, l, bits) and their monomials, as ``hook_schur``
    decodes them; it empties the dict once it holds over ``_KEPT_TERMS``, so
    one holds at most that many and one result's terms."""
    return {}


def hook_schur(
    shape: Shape, alphabet: Alphabet, shuffle: Shuffle, variant: Variant = REGULAR_REGULAR
) -> Polynomial:
    """Weight generating polynomial of the shape's fillings under the variant.

    A filling under the shuffle is a chain of shapes from the empty shape to
    ``shape`` that adds one strip per letter, letters taken in shuffle order;
    the strip's size is that letter's exponent.  A letter strict in columns
    adds a horizontal strip, one strict in rows a vertical strip: under the
    regular rule a t adds a horizontal and a u a vertical strip, and the dual
    rule swaps them.

    The walk meets in the middle.  The second half of the shuffle is walked
    backward from ``{shape}``, removing one strip per letter from the last,
    which gives for each sub-shape mu the exponent vectors, with counts, of
    the chains from mu up to ``shape``.  The first half is walked forward
    from the empty shape the same way, and the two halves are joined at each
    mu that both reach.  Each walk costs one step per (sub-shape, strip,
    term) rather than one per filling.  The strip lists, both ways, depend
    only on (shape, sub-shape, strip kind), so one table per shape, kept for
    a bounded number of shapes, serves the calls of every shuffle and
    variant; it numbers the sub-shapes it meets, and the walks key their
    chains by those int ids.  No polynomial or chain outlives a call.

    The result does not depend on the shuffle (Corollary 4); the walk follows
    the given order, so the harness's invariance check compares genuinely
    different strip chains.  ``enumerate_ssyt`` with each filling's weight
    monomial summed (the weight oracle in ``tests/oracles.py``) is what the
    tests hold this against.  A letter of the shuffle outside ``alphabet``
    raises ``ValueError`` when some filling of the shape uses it.

    Exponent vectors are packed ints with one bit field per letter, t1 in
    the top field and on down in alphabet order (t1..tk, then u1..ul), so a
    larger key is a larger ``Monomial``.  Each letter's field lies in one
    half, so adding a first-half key to a second-half key multiplies the
    monomials.  The keys, sorted descending, are decoded by one lookup each
    in a dict of monomials per (k, l, field width), kept for a bounded
    number of keys, and only the misses are unpacked; the results share
    those monomials.  The decoded monomials and the keys' counts, in that
    order, are the result's canonical tuples, so no result dict is built.
    """
    shape = check_shape(shape)
    ids, subs, lists = _strip_table(shape)

    def fill(table: list, kind: str, mu: int, outward: bool) -> list:
        """Sub-shape mu's strips, built once, numbering what they reach."""
        with _NUMBERING:
            found = table[mu]
            if found is None:  # no other thread took it first
                found = []
                for nu, size in _build_strips(shape, kind, subs[mu], outward):
                    if nu not in ids:
                        subs.append(nu)
                        for other in lists.values():
                            other.append(None)
                        ids[nu] = len(subs) - 1
                    found.append((ids[nu], size))
                table[mu] = found
        return found

    # alphabet letter p (t1 = 0, ..., then u1, ...) owns the bit field at
    # (k + l - 1 - p) * bits, wide enough for a count up to |shape|; a shuffle
    # letter outside the alphabet gets one above those, in shuffle order
    k, l = alphabet.k, alphabet.l
    bits = sum(shape).bit_length()
    outside, fields = [], []
    for letter in shuffle.order:
        kind, index = letter
        if kind == "t" and index <= k:
            fields.append(k + l - index)
        elif kind == "u" and index <= l:
            fields.append(l - index)
        else:
            fields.append(k + l + len(outside))
            outside.append(letter)
    # from is_valid's per-rank table: a letter strict in rows adds a vertical
    # strip (kind "u"), any other a horizontal one (kind "t")
    strict_in_rows = _strict_in_rows(shuffle, variant_profile(variant))
    steps = [
        ("u" if strict else "t", field * bits) for field, strict in zip(fields, strict_in_rows)
    ]
    half = len(steps) // 2

    def walk(chains, steps, outward):
        """Add (outward) or remove one strip per step."""
        for kind, offset in steps:
            table = lists[kind, outward]
            extended: dict[int, dict[int, int]] = {}
            for mu, terms in chains.items():
                found = table[mu]
                if found is None:
                    found = fill(table, kind, mu, outward)
                pairs = terms.items()
                for nu, size in found:
                    target = extended.get(nu)
                    if target is None:
                        target = extended[nu] = {}
                    get = target.get
                    shift = size << offset
                    for key, count in pairs:
                        key += shift
                        target[key] = get(key, 0) + count
            chains = extended
        return chains

    # back[mu]: the chains from mu after the first half up to shape
    back = walk({0: {0: 1}}, steps[half:][::-1], False)
    # front[mu]: the chains from the empty shape up to mu, joined where back has mu
    front = walk({ids[(0,) * len(shape)]: {0: 1}}, steps[:half], True)

    terms: dict[int, int] = {}
    get = terms.get
    tails_of = back.get
    for mu, heads in front.items():
        tails = tails_of(mu)
        if tails is None:
            continue
        tails = tails.items()
        for head, count in heads.items():
            for tail, other in tails:
                key = head + tail
                terms[key] = get(key, 0) + count * other

    mask = (1 << bits) - 1
    for field, letter in enumerate(outside, k + l):
        if any(key >> field * bits & mask for key in terms):
            raise ValueError(f"letter {letter} outside alphabet {alphabet}")
    # no key uses an outside field now: a key is k x-fields, then l y-fields,
    # x1 highest, so descending keys are descending monomials
    decoded = _monomials(k, l, bits)
    if len(decoded) > _KEPT_TERMS:
        decoded.clear()
    keys = sorted(terms, reverse=True)
    monos = list(map(decoded.get, keys))
    if not all(monos):  # a miss is None; a Monomial is a 2-tuple, so true
        shifts = [field * bits for field in range(k + l - 1, -1, -1)]
        for i, key in enumerate(keys):
            if monos[i] is None:
                exponents = [key >> shift & mask for shift in shifts]
                monos[i] = decoded[key] = Monomial._make(
                    (tuple(exponents[:k]), tuple(exponents[k:]))
                )
    return Polynomial._of(tuple(monos), tuple(map(terms.__getitem__, keys)))


def rsk_counting_identity(
    alphabet: Alphabet, n: int, shuffle: Shuffle, variant: Variant
) -> dict:
    """Compare sum over shapes of (#fillings x #standard fillings) to (k+l)^n.

    Insertion pairs each length-n word with a (tableau, standard tableau)
    pair of equal shape, so the two counts must agree.  A shape's fillings
    are counted as the coefficient sum of its ``hook_schur`` polynomial, so
    none is listed; a shuffle letter outside the alphabet raises as there.
    """
    lhs = 0
    for shape in partitions(n):
        poly = hook_schur(shape, alphabet, shuffle, variant)
        lhs += sum(coeff for _, coeff in poly.sorted_terms()) * count_syt(shape)
    rhs = alphabet.size**n
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
