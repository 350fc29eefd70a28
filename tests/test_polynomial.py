import gc
import tracemalloc
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superrsk import VARIANTS, Alphabet, all_shuffles, hook_schur
from superrsk.polynomial import (
    Monomial,
    Polynomial,
    polynomial_to_json,
)
from superrsk.schur import partitions


def mono(x, y):
    return Monomial(tuple(x), tuple(y))


X1 = mono((1, 0), (0, 0))
Y1 = mono((0, 0), (1, 0))


class TestMonomial:
    def test_product(self):
        assert mono((1, 0), (2, 0)) * mono((0, 1), (1, 1)) == mono((1, 1), (3, 1))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            mono((1,), ()) * mono((1, 0), ())

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            mono((-1,), ())

    def test_exponents_become_int_tuples(self):
        m = Monomial([1, True], (0.0, 2))
        assert m.x == (1, 1) and m.y == (0, 2)
        assert all(type(e) is int for e in m.x + m.y)
        assert m == mono((1, 1), (0, 2)) and hash(m) == hash(mono((1, 1), (0, 2)))
        # any iterable will do, a one-shot iterator too
        assert Monomial(iter([1, True]), (e for e in (0.0, 2))) == m

    @pytest.mark.parametrize("x,y", [((1.5,), ()), ((1,), (0.25,)), (("2",), ())])
    def test_exponents_that_int_would_change_are_refused(self, x, y):
        with pytest.raises(ValueError, match="exponents must be integers"):
            Monomial(x, y)

    def test_frozen_without_instance_dict(self):
        m = mono((1,), (0,))
        with pytest.raises(AttributeError):
            m.x = (2,)
        assert not hasattr(m, "__dict__")

    def test_render(self):
        assert mono((2, 1, 1), (2, 2, 2)).render() == "x1^2 x2 x3 y1^2 y2^2 y3^2"
        assert Monomial((0,), (0,)).render() == "1"


class TestPolynomial:
    def test_zero_coefficients_never_stored(self):
        p = Polynomial({X1: 2, Y1: 1}) + Polynomial({X1: -2})
        assert p.coefficient(X1) == 0
        assert len(p) == 1

    def test_mapping_terms_coerced_and_zeros_dropped(self):
        p = Polynomial({X1: True, Y1: 0, X1 * Y1: -3})
        assert p == Polynomial({X1: 1, X1 * Y1: -3})
        assert len(p) == 2 and type(p.coefficient(X1)) is int

    def test_pairs_rejected(self):
        with pytest.raises(TypeError):
            Polynomial([(X1, 1)])

    @pytest.mark.parametrize("key", [(1, 2), ((1, 0), (0, 0)), "x1"])
    def test_keys_must_be_monomials(self, key):
        # a plain tuple equal to a monomial is not one, and would not render
        with pytest.raises(TypeError, match="^polynomial keys must be monomials"):
            Polynomial({key: 3})

    @pytest.mark.parametrize("coeff", [0.5, 2.0, "1", None])
    def test_coefficients_must_be_integers(self, coeff):
        # int() would truncate a float, 0.5 to the zero polynomial
        with pytest.raises(ValueError, match="^coefficients must be integers"):
            Polynomial({X1: coeff})

    def test_addition(self):
        p = Polynomial({X1: 1}) + Polynomial({X1: 2, Y1: 1})
        assert p.coefficient(X1) == 3 and p.coefficient(Y1) == 1

    def test_multiplication(self):
        p = Polynomial({X1: 1, Y1: 1})
        square = p * p
        assert square.coefficient(X1 * X1) == 1
        assert square.coefficient(X1 * Y1) == 2
        assert square.coefficient(Y1 * Y1) == 1

    def test_equality_is_exact(self):
        assert Polynomial({X1: 1}) != Polynomial({X1: 2})
        assert Polynomial() == Polynomial({})
        assert not Polynomial()

    def test_render(self):
        # terms come out sorted by descending exponent tuples, x-part first
        p = Polynomial({X1 * X1: 1, X1 * Y1: 1})
        assert p.render() == "x1^2 + x1 y1"
        assert Polynomial().render() == "0"
        assert Polynomial({X1: -1, Y1: 2}).render() == "-x1 + 2 y1"

    def test_json_round_trip_sorted(self):
        p = Polynomial({Y1: 3, X1: 1})
        data = polynomial_to_json(p)
        assert data == [
            {"x": [1, 0], "y": [0, 0], "coeff": 1},
            {"x": [0, 0], "y": [1, 0], "coeff": 3},
        ]
        terms = {Monomial(tuple(d["x"]), tuple(d["y"])): d["coeff"] for d in data}
        assert Polynomial(terms) == p


small_monomials = st.builds(
    mono,
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
small_polynomials = st.dictionaries(small_monomials, st.integers(-5, 5), max_size=6).map(
    Polynomial
)


@given(small_polynomials, small_polynomials)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(small_polynomials, small_polynomials, small_polynomials)
def test_multiplication_associates_and_distributes(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(small_polynomials, small_polynomials)
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@given(small_polynomials)
def test_a_sum_that_cancels_is_zero(p):
    negated = Polynomial({m: -c for m, c in p.sorted_terms()})
    total = p + negated
    assert total == Polynomial() and len(total) == 0 and not total
    assert total.sorted_terms() == [] and total.render() == "0"


def monomials_of_degree(n, k, l):
    """Every monomial of total degree n in x1..xk, y1..yl."""
    found = []
    for letters in combinations_with_replacement(range(k + l), n):
        exponents = [letters.count(i) for i in range(k + l)]
        found.append(Monomial(exponents[:k], exponents[k:]))
    return found


class TestCanonicalForm:
    """A polynomial is held one way, whatever the order it was built in."""

    def test_every_insertion_order_gives_one_polynomial(self):
        terms = [(X1, 1), (Y1, -2), (X1 * Y1, 3), (X1 * X1, 4), (mono((0, 0), (0, 0)), 5)]
        first = Polynomial(dict(terms))
        for order in permutations(terms):
            p = Polynomial(dict(order))
            assert p == first
            assert p.sorted_terms() == first.sorted_terms()
            assert p.render() == first.render()

    @pytest.mark.parametrize("n", range(6))
    def test_hook_schur_coefficients(self, n):
        # every monomial of degree n, present or absent, and one of degree n + 1
        alph = Alphabet(3, 3)
        candidates = monomials_of_degree(n, 3, 3)
        beyond = Monomial((n + 1, 0, 0), (0, 0, 0))
        for shape in partitions(n):
            for shuffle in all_shuffles(alph):
                for variant in VARIANTS:
                    p = hook_schur(shape, alph, shuffle, variant)
                    terms = dict(p.sorted_terms())
                    assert [p.coefficient(m) for m in candidates] == [
                        terms.get(m, 0) for m in candidates
                    ]
                    assert p.coefficient(beyond) == 0
                    assert p == Polynomial(dict(reversed(p.sorted_terms())))


def test_hook_schur_results_hold_under_24_bytes_a_term():
    # the 300 results of every shape of 7 under every shuffle at k = l = 3,
    # after one pass has filled the strip tables and the decoded monomials
    # that the results share: two tuple slots and the odd large coefficient
    # per term, where a dict per result would hold about 39 bytes a term
    alph = Alphabet(3, 3)
    ops = [(shape, shuffle) for shape in partitions(7) for shuffle in all_shuffles(alph)]
    assert len(ops) == 300
    for shape, shuffle in ops:
        hook_schur(shape, alph, shuffle)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = [hook_schur(shape, alph, shuffle) for shape, shuffle in ops]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    terms = sum(map(len, results))
    assert terms == 120960
    assert retained < 24 * terms
