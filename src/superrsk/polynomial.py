"""Sparse polynomials with exact integer coefficients in x1..xk, y1..yl."""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping, NamedTuple

__all__ = [
    "Monomial",
    "Polynomial",
    "polynomial_to_json",
]


class _Exponents(NamedTuple):
    x: tuple[int, ...]
    y: tuple[int, ...]


class Monomial(_Exponents):
    """Exponent vectors over the x-variables and the y-variables.

    An immutable named tuple ``(x, y)``: hashing, equality and ordering are
    the tuple's.  The constructor coerces exponents to ints, refusing one
    that ``int()`` would change (such as 1.5), and rejects negative ones;
    ``Monomial._make((x, y))`` skips that, for callers whose exponents are
    non-negative int tuples by construction.
    """

    __slots__ = ()

    def __new__(cls, x, y) -> "Monomial":
        x, y = tuple(x), tuple(y)
        given = x + y
        x = tuple(map(int, x))
        y = tuple(map(int, y))
        if x + y != given:
            raise ValueError(f"exponents must be integers, got {given}")
        if min(x + y, default=0) < 0:
            raise ValueError("exponents must be non-negative")
        return tuple.__new__(cls, (x, y))

    def __mul__(self, other: "Monomial") -> "Monomial":
        if len(self.x) != len(other.x) or len(self.y) != len(other.y):
            raise ValueError("monomials range over different variable sets")
        # sums of non-negative int exponents need no check
        return Monomial._make((
            tuple(a + b for a, b in zip(self.x, other.x)),
            tuple(a + b for a, b in zip(self.y, other.y)),
        ))

    def render(self) -> str:
        parts = [f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(self.x, 1) if e]
        parts += [f"y{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(self.y, 1) if e]
        return " ".join(parts) if parts else "1"


class Polynomial:
    """A finite map monomial -> integer coefficient; zeros are never stored.

    Held as two tuples of equal length: the monomials in descending order
    (the ``sorted_terms`` order), each once, and their coefficients, nonzero
    Python ints, so counts can grow without overflow.  Equal polynomials
    hold equal tuples, so equality is tuple equality, and a coefficient is
    found by bisection.  The constructor refuses a key that is not a
    ``Monomial`` and a coefficient that is not an int; a bool is taken as 0
    or 1.
    """

    __slots__ = ("_monos", "_coeffs")

    def __init__(self, terms: Mapping[Monomial, int] | None = None) -> None:
        if terms is None:
            terms = {}
        elif not isinstance(terms, Mapping):
            raise TypeError("terms must be a mapping of monomials to coefficients")
        checked = {}  # distinct keys: nothing to merge
        for mono, coeff in terms.items():
            if not isinstance(mono, Monomial):
                raise TypeError(f"polynomial keys must be monomials, got {mono!r}")
            if not isinstance(coeff, int):
                raise ValueError(f"coefficients must be integers, got {coeff!r}")
            checked[mono] = int(coeff)  # a bool becomes 0 or 1
        self._monos, self._coeffs = _canonical(checked)

    @classmethod
    def _of(cls, monos: tuple[Monomial, ...], coeffs: tuple[int, ...]) -> "Polynomial":
        """The polynomial of ``monos`` and ``coeffs``, taken as they are: the
        monomials strictly descending and the coefficients nonzero ints."""
        poly = object.__new__(cls)
        poly._monos = monos
        poly._coeffs = coeffs
        return poly

    def coefficient(self, mono: Monomial) -> int:
        monos = self._monos
        lo, hi = 0, len(monos)
        while lo < hi:  # monos[:lo] > mono >= monos[hi:]
            mid = (lo + hi) // 2
            if monos[mid] > mono:
                lo = mid + 1
            else:
                hi = mid
        return self._coeffs[lo] if lo < len(monos) and monos[lo] == mono else 0

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        # descending exponent tuples: x-dominant terms print first
        return list(zip(self._monos, self._coeffs))

    def __len__(self) -> int:
        return len(self._monos)

    def __bool__(self) -> bool:
        return bool(self._monos)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._monos == other._monos and self._coeffs == other._coeffs

    __hash__ = None  # compared by value only; not hashable

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        merged = dict(zip(self._monos, self._coeffs))
        get = merged.get
        for mono, coeff in zip(other._monos, other._coeffs):
            merged[mono] = get(mono, 0) + coeff
        return Polynomial._of(*_canonical(merged))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        prod: dict[Monomial, int] = {}
        get = prod.get
        for m1, c1 in zip(self._monos, self._coeffs):
            for m2, c2 in zip(other._monos, other._coeffs):
                m = m1 * m2
                prod[m] = get(m, 0) + c1 * c2
        return Polynomial._of(*_canonical(prod))

    def render(self) -> str:
        if not self._monos:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            body = mono.render()
            if body == "1":
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff} {body}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"


def _canonical(terms: dict[Monomial, int]) -> tuple[tuple[Monomial, ...], tuple[int, ...]]:
    """The nonzero terms of a dict of distinct monomials, as descending
    monomials and their coefficients."""
    kept = sorted(((m, c) for m, c in terms.items() if c), key=itemgetter(0), reverse=True)
    return tuple(map(itemgetter(0), kept)), tuple(map(itemgetter(1), kept))


def polynomial_to_json(p: Polynomial) -> list[dict]:
    return [
        {"x": list(mono.x), "y": list(mono.y), "coeff": coeff}
        for mono, coeff in p.sorted_terms()
    ]
