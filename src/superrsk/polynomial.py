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

    Coefficients are plain Python ints, so counts can grow without overflow.
    The constructor refuses a key that is not a ``Monomial`` and a
    coefficient that is not an int; a bool is taken as 0 or 1.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None) -> None:
        if terms is None:
            terms = {}
        elif not isinstance(terms, Mapping):
            raise TypeError("terms must be a mapping of monomials to coefficients")
        self._terms = {}  # distinct keys: nothing to merge
        for mono, coeff in terms.items():
            if not isinstance(mono, Monomial):
                raise TypeError(f"polynomial keys must be monomials, got {mono!r}")
            if not isinstance(coeff, int):
                raise ValueError(f"coefficients must be integers, got {coeff!r}")
            if coeff:
                self._terms[mono] = int(coeff)  # a bool becomes 0 or 1

    @classmethod
    def _of(cls, terms: dict[Monomial, int]) -> "Polynomial":
        """The polynomial of ``terms``, taken as it is: its keys are ``Monomial``s
        and its coefficients nonzero ints by construction, and no one else holds it."""
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(mono, 0)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        # descending exponent tuples: x-dominant terms print first
        return sorted(self._terms.items(), key=itemgetter(0), reverse=True)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-dict backed; compare by value only

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        merged = dict(self._terms)
        for mono, coeff in other._terms.items():
            c = merged.get(mono, 0) + coeff
            if c:
                merged[mono] = c
            elif mono in merged:
                del merged[mono]
        return Polynomial._of(merged)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        prod: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
                c = prod.get(m, 0) + c1 * c2
                if c:
                    prod[m] = c
                elif m in prod:
                    del prod[m]
        return Polynomial._of(prod)

    def render(self) -> str:
        if not self._terms:
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


def polynomial_to_json(p: Polynomial) -> list[dict]:
    return [
        {"x": list(mono.x), "y": list(mono.y), "coeff": coeff}
        for mono, coeff in p.sorted_terms()
    ]
