import re
from collections import Counter
from functools import lru_cache
from itertools import product

import pytest

from conftest import tab
from oracles import weight_monomial
from superrsk import (
    DUAL_DUAL,
    DUAL_REGULAR,
    REGULAR_DUAL,
    REGULAR_REGULAR,
    VARIANTS,
    Alphabet,
    RecordingTableau,
    Shuffle,
    Tableau,
    all_shuffles,
    count_syt,
    enumerate_ssyt,
    enumerate_syt,
    hook_schur,
    is_standard,
    is_valid,
    kl_shuffle,
    parse_shuffle,
    partitions,
    rsk_counting_identity,
    variant_profile,
)
from superrsk import schur
from superrsk.polynomial import Monomial, Polynomial
from superrsk.tableau import check_shape


class TestPartitions:
    def test_zero(self):
        assert partitions(0) == [()]

    def test_three(self):
        assert partitions(3) == [(3,), (2, 1), (1, 1, 1)]

    def test_four_count(self):
        assert len(partitions(4)) == 5

    def test_counts_against_recurrence(self):
        # independent oracle: p(n) via intermediate function counting
        # partitions with parts of bounded size
        @lru_cache(maxsize=None)
        def count(n, cap):
            if n == 0:
                return 1
            return sum(count(n - part, part) for part in range(min(cap, n), 0, -1))

        for n in range(0, 12):
            shapes = partitions(n)
            assert len(shapes) == count(n, n)
            assert len(set(shapes)) == len(shapes)
            for shape in shapes:
                assert sum(shape) == n
                assert all(a >= b for a, b in zip(shape, shape[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="^n must be non-negative$"):
            partitions(-1)

    @pytest.mark.parametrize("n", [True, 2.0, "3", None], ids=repr)
    def test_non_integer_rejected(self, n):
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            partitions(n)


def brute_force_fillings(shape, alphabet):
    cells = sum(shape)
    for filling in product(alphabet.letters(), repeat=cells):
        rows, i = [], 0
        for length in shape:
            rows.append(tuple(filling[i : i + length]))
            i += length
        yield Tableau(tuple(rows))


class TestEnumerateSsyt:
    def test_single_cell(self):
        alph = Alphabet(1, 1)
        for shuffle in all_shuffles(alph):
            found = enumerate_ssyt((1,), alph, shuffle, REGULAR_REGULAR)
            assert set(found) == {tab("t1"), tab("u1")}

    def test_row_of_two(self):
        alph = Alphabet(1, 1)
        order = parse_shuffle("t1<u1", alph)
        found = enumerate_ssyt((2,), alph, order, REGULAR_REGULAR)
        assert set(found) == {tab("t1 t1"), tab("t1 u1")}

    def test_row_longer_than_the_recursion_limit(self):
        alph = Alphabet(1, 1)
        order = parse_shuffle("t1<u1", alph)
        found = enumerate_ssyt((1500,), alph, order, REGULAR_REGULAR)
        assert found == [tab("t1 " * 1500), tab("t1 " * 1499 + "u1")]

    def test_column_of_two(self):
        alph = Alphabet(1, 1)
        order = parse_shuffle("t1<u1", alph)
        found = enumerate_ssyt((1, 1), alph, order, REGULAR_REGULAR)
        assert set(found) == {tab("t1 / u1"), tab("u1 / u1")}

    def test_empty_shape(self, a22, order_ttuu):
        assert enumerate_ssyt((), a22, order_ttuu, REGULAR_REGULAR) == [Tableau()]

    def test_unfillable_shape_gives_empty_list(self):
        # a column of three with one letter of each kind admits no filling
        # whose t's are strict in columns and u's strict in rows... except
        # repeated u's, so use a pure-t alphabet where columns must be strict
        alph = Alphabet(1, 0)
        order = kl_shuffle(alph)
        assert enumerate_ssyt((1, 1), alph, order, REGULAR_REGULAR) == []

    def test_matches_brute_force_enumeration(self, monkeypatch):
        # independent oracle: filter all fillings by the validity predicate;
        # they come out in rank order cell by cell, row-major
        calls = {"rank": 0}
        rank = Shuffle.rank

        def counted(shuffle, letter):
            calls["rank"] += 1
            return rank(shuffle, letter)

        monkeypatch.setattr(Shuffle, "rank", counted)
        for alphabet in (Alphabet(2, 2), Alphabet(2, 1)):
            for shape in ((2,), (1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1)):
                for shuffle in all_shuffles(alphabet):
                    for variant in VARIANTS:
                        profile = variant_profile(variant)
                        expected = sorted(
                            (
                                candidate
                                for candidate in brute_force_fillings(shape, alphabet)
                                if is_valid(candidate, shuffle, profile)
                            ),
                            key=lambda p: [shuffle.ranks[x] for row in p.rows for x in row],
                        )
                        before = calls["rank"]
                        assert enumerate_ssyt(shape, alphabet, shuffle, variant) == expected
                        # the validity table is read on ranks: no letter is compared
                        assert calls["rank"] == before

    @pytest.mark.parametrize("k,l", [(2, 2), (2, 1), (1, 2), (3, 2), (3, 0), (0, 3)])
    def test_rank_fill_maps_to_enumerate_ssyt(self, k, l):
        # the rank-level fill that theorem3 and converse read: mapped to
        # letters it is enumerate_ssyt filling by filling, in the same order,
        # and its reading words rise strictly in rank order
        alphabet = Alphabet(k, l)
        shapes = [shape for n in range(6) for shape in partitions(n)]
        assert shapes[0] == ()
        for shuffle in all_shuffles(alphabet):
            order = shuffle.order
            for variant in VARIANTS:
                for shape in shapes:
                    fillings = schur._fill_ranks(shape, shuffle, variant)
                    tableaux = enumerate_ssyt(shape, alphabet, shuffle, variant)
                    assert len(fillings) == len(tableaux)
                    for rows, p in zip(fillings, tableaux):
                        assert tuple(map(len, rows)) == shape
                        assert tuple(tuple(order[x] for x in row) for row in rows) == p.rows
                    reading = [[x for row in rows for x in row] for rows in fillings]
                    assert all(a < b for a, b in zip(reading, reading[1:]))
                    if not shape:
                        assert fillings == [[]] and tableaux == [Tableau()]

    def test_deterministic_order(self, a22, order_ttuu):
        first = enumerate_ssyt((2, 1), a22, order_ttuu, REGULAR_REGULAR)
        second = enumerate_ssyt((2, 1), a22, order_ttuu, REGULAR_REGULAR)
        assert first == second


@lru_cache(maxsize=None)
def syt_count_by_corner_removal(shape):
    if sum(shape) == 0:
        return 1
    total = 0
    for i, length in enumerate(shape):
        if i + 1 < len(shape) and shape[i + 1] == length:
            continue  # not a removable corner
        smaller = shape[:i] + ((length - 1,) if length > 1 else ()) + shape[i + 1 :]
        total += syt_count_by_corner_removal(smaller)
    return total


class TestSytCounts:
    def test_spot_values(self):
        assert count_syt((1,)) == 1
        assert count_syt((2, 1)) == 2
        assert count_syt((2, 2)) == 2
        assert count_syt(()) == 1

    def test_enumeration_examples(self):
        found = enumerate_syt((2, 1))
        assert len(found) == 2
        assert all(is_standard(q) for q in found)

    def test_row_longer_than_the_recursion_limit(self):
        found = enumerate_syt((1500,))
        assert found == [RecordingTableau((tuple(range(1, 1501)),))]

    def test_formula_vs_enumeration_vs_recursion(self):
        for n in range(0, 9):
            for shape in partitions(n):
                by_formula = count_syt(shape)
                by_recursion = syt_count_by_corner_removal(shape)
                listed = enumerate_syt(shape)
                assert by_formula == by_recursion == len(listed)
                assert len(set(listed)) == len(listed)
                assert all(is_standard(q) for q in listed)
                assert all(q.shape == shape for q in listed)


def xy(alphabet, **powers):
    x = [0] * alphabet.k
    y = [0] * alphabet.l
    for name, e in powers.items():
        index = int(name[1:]) - 1
        (x if name[0] == "x" else y)[index] = e
    return Monomial(tuple(x), tuple(y))


class TestHookSchur:
    def test_single_cell(self):
        alph = Alphabet(1, 1)
        for shuffle in all_shuffles(alph):
            poly = hook_schur((1,), alph, shuffle)
            assert poly == Polynomial({xy(alph, x1=1): 1, xy(alph, y1=1): 1})

    def test_row_of_two(self):
        alph = Alphabet(1, 1)
        order = parse_shuffle("t1<u1", alph)
        poly = hook_schur((2,), alph, order)
        assert poly == Polynomial({xy(alph, x1=2): 1, xy(alph, x1=1, y1=1): 1})

    def test_column_of_two_both_orders(self):
        alph = Alphabet(1, 1)
        expected = Polynomial({xy(alph, x1=1, y1=1): 1, xy(alph, y1=2): 1})
        for shuffle in all_shuffles(alph):
            assert hook_schur((1, 1), alph, shuffle) == expected

    def test_homogeneous_with_nonnegative_coefficients(self, a22, order_ttuu):
        for n in range(0, 5):
            for shape in partitions(n):
                poly = hook_schur(shape, a22, order_ttuu)
                for mono, coeff in poly.sorted_terms():
                    assert coeff > 0
                    assert sum(mono.x) + sum(mono.y) == n


def weight_sum(shape, alphabet, shuffle, variant=REGULAR_REGULAR):
    """The oracle: weights of the enumerated fillings, summed."""
    terms = {}
    for filling in enumerate_ssyt(shape, alphabet, shuffle, variant):
        mono = weight_monomial(filling, alphabet)
        terms[mono] = terms.get(mono, 0) + 1
    return Polynomial(terms)


class TestHookSchurAgainstEnumeration:
    @pytest.mark.parametrize(
        "k,l,max_n",
        [(1, 0, 5), (0, 1, 5), (1, 1, 6), (2, 1, 6), (1, 2, 6), (2, 2, 6), (3, 0, 6), (0, 3, 6),
         (3, 1, 5), (3, 3, 5)],
    )
    def test_equals_enumerated_weights_under_every_shuffle(self, k, l, max_n):
        # shuffles of 1 to 6 letters: the walk's first half is empty at one
        # letter and one letter shorter than its second half at odd lengths
        alph = Alphabet(k, l)
        for n in range(max_n + 1):
            for shape in partitions(n):
                for shuffle in all_shuffles(alph):
                    assert hook_schur(shape, alph, shuffle) == weight_sum(shape, alph, shuffle)
                    for variant in VARIANTS[1:]:
                        expected = weight_sum(shape, alph, shuffle, variant)
                        assert hook_schur(shape, alph, shuffle, variant) == expected

    @pytest.mark.parametrize(
        "k,l",
        [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 0), (2, 2), (0, 3), (3, 1), (1, 3), (2, 3),
         (3, 3)],
    )
    def test_hook_vanishing_criterion(self, k, l):
        # a regular t or a dual u adds a horizontal strip, the other two a
        # vertical one.  So under reg-reg a shape has fillings iff it fits in
        # the (k, l) hook: at most k rows, or row k+1 no longer than l;
        # (3, 3, 3) is the first miss at (2, 2).  dual-dual swaps k and l,
        # reg-dual allows k + l rows and dual-reg k + l columns.
        alph = Alphabet(k, l)
        for n in range(10 if k + l <= 4 else 8):
            for shape in partitions(n):
                in_hook = {
                    "reg-reg": len(shape) <= k or shape[k] <= l,
                    "dual-dual": len(shape) <= l or shape[l] <= k,
                    "reg-dual": len(shape) <= k + l,
                    "dual-reg": not shape or shape[0] <= k + l,
                }
                for shuffle in all_shuffles(alph):
                    assert bool(hook_schur(shape, alph, shuffle)) == in_hook["reg-reg"]
                    for variant in VARIANTS:
                        poly = hook_schur(shape, alph, shuffle, variant)
                        assert bool(poly) == in_hook[variant.name]

    def test_empty_shape_is_constant_one(self):
        for alph in (Alphabet(1, 0), Alphabet(0, 2), Alphabet(3, 3)):
            for shuffle in all_shuffles(alph):
                poly = hook_schur((), alph, shuffle)
                assert poly == Polynomial({Monomial((0,) * alph.k, (0,) * alph.l): 1})

    def test_letter_outside_alphabet_rejected(self):
        shuffle = parse_shuffle("t1<u1<t2", Alphabet(2, 1))
        for shape in ((1,), (2,), (1, 1), (2, 1)):
            with pytest.raises(ValueError, match="outside alphabet"):
                hook_schur(shape, Alphabet(1, 1), shuffle)

    @pytest.mark.parametrize(
        "shuffle_text,letter",
        [("u1<t1<u2<t2", "u2"), ("t1<t2<u1<u2", "t2"), ("t1<u1<t2<u2", "t2")],
    )
    def test_first_outside_letter_in_shuffle_order_named(self, shuffle_text, letter):
        shuffle = parse_shuffle(shuffle_text, Alphabet(2, 2))
        message = f"letter {letter} outside alphabet (k=1, l=1)"
        for shape in ((1,), (2, 1), (2, 2)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                hook_schur(shape, Alphabet(1, 1), shuffle)
        assert hook_schur((), Alphabet(1, 1), shuffle) == Polynomial({Monomial((0,), (0,)): 1})

    @pytest.mark.parametrize("k,l", [(2, 2), (3, 3), (3, 1)])
    def test_shuffle_lacking_alphabet_letters_matches_enumeration(self, k, l):
        # letters the shuffle lacks keep exponent 0 in every term
        alph = Alphabet(k, l)
        smaller = [Alphabet(i, j) for i in range(k + 1) for j in range(l + 1) if 0 < i + j < k + l]
        for sub in smaller:
            for shuffle in all_shuffles(sub):
                for n in range(5):
                    for shape in partitions(n):
                        assert hook_schur(shape, alph, shuffle) == weight_sum(shape, alph, shuffle)

    @pytest.mark.parametrize("k,l", [(2, 2), (2, 1), (1, 2), (3, 3)])
    def test_keys_are_int_tuple_monomials(self, k, l):
        alph = Alphabet(k, l)
        for n in range(6):
            for shape in partitions(n):
                for shuffle in all_shuffles(alph):
                    for m, _ in hook_schur(shape, alph, shuffle).sorted_terms():
                        assert type(m) is Monomial
                        assert len(m.x) == k and len(m.y) == l
                        assert all(type(e) is int for e in m.x + m.y)
                        rebuilt = Monomial(m.x, m.y)
                        assert m == rebuilt and hash(m) == hash(rebuilt)

    def test_no_validated_monomial_built(self, monkeypatch):
        # the walk's decode gives non-negative ints, so hook_schur skips the check
        built = []
        validating = Monomial.__new__

        def counting(cls, x, y):
            built.append((x, y))
            return validating(cls, x, y)

        monkeypatch.setattr(Monomial, "__new__", staticmethod(counting))
        alph = Alphabet(2, 2)
        for shape in partitions(5):
            for shuffle in all_shuffles(alph):
                assert hook_schur(shape, alph, shuffle)
        assert built == []
        Monomial((1, 0), (0, 0))
        assert built == [((1, 0), (0, 0))]

    def test_invalid_shape_rejected(self, a22, order_ttuu):
        for shape in ((1, 2), (2, 0)):
            with pytest.raises(ValueError):
                hook_schur(shape, a22, order_ttuu)

    @pytest.mark.parametrize("shape", [(2.9, True), (True,), ("2",)])
    def test_non_int_parts_rejected(self, a22, order_ttuu, shape):
        # int() would read (2.9, True) as (2, 1); a bool is an int to isinstance
        with pytest.raises(ValueError, match="shape parts must be integers"):
            check_shape(shape)
        with pytest.raises(ValueError, match="shape parts must be integers"):
            hook_schur(shape, a22, order_ttuu)

    @pytest.mark.parametrize("k,l", [(2, 2), (3, 3)])
    def test_counting_identity_without_enumeration(self, k, l):
        # insertion pairs each of the (k+l)^n words with a filling and a
        # standard filling of one shape, and HS(1,...,1) counts the fillings
        alph = Alphabet(k, l)
        for n in range(8):
            for shuffle in all_shuffles(alph):
                total = sum(
                    sum(coeff for _, coeff in hook_schur(shape, alph, shuffle).sorted_terms())
                    * count_syt(shape)
                    for shape in partitions(n)
                )
                assert total == (k + l) ** n


def transpose(shape):
    """The conjugate shape: its rows are the columns of ``shape``."""
    return tuple(sum(1 for length in shape if length > c) for c in range(shape[0] if shape else 0))


class TestTransposeDuality:
    """Each variant's walk held against another variant's on the transposed shape."""

    @pytest.mark.parametrize("k,l,max_n", [(2, 2, 6), (3, 1, 6), (1, 3, 6), (3, 3, 6), (2, 3, 6)])
    def test_swapping_both_rules_transposes_the_shape(self, k, l, max_n):
        # transposing a chain of shapes turns every horizontal strip into a
        # vertical one and back, as swapping the rule of both kinds does
        alph = Alphabet(k, l)
        filled = 0
        for n in range(max_n + 1):
            for shape in partitions(n):
                flipped = transpose(shape)
                for shuffle in all_shuffles(alph):
                    dual = hook_schur(shape, alph, shuffle, DUAL_DUAL)
                    assert dual == hook_schur(flipped, alph, shuffle, REGULAR_REGULAR)
                    mixed = hook_schur(shape, alph, shuffle, DUAL_REGULAR)
                    assert mixed == hook_schur(flipped, alph, shuffle, REGULAR_DUAL)
                    filled += bool(dual.sorted_terms()) + bool(mixed.sorted_terms())
        assert filled


class TestMeetInTheMiddle:
    """The walk split at the middle of the shuffle, under every variant."""

    @pytest.mark.parametrize(
        "k,l,shuffle_text",
        [
            (1, 1, "t1<t2<u1<u2"),  # one outside letter in each half
            (1, 1, "u1<u2<t1<t2"),
            (1, 1, "t1<u1<t2<u2"),  # both in the second half
            (1, 1, "t1<t2<t3<u1<u2<u3"),  # two in each half
            (1, 0, "u1<t1<t2"),  # a first half of one outside letter
            (1, 1, "t1<u1<t2"),  # the longer second half
            (0, 1, "u1<t1"),
        ],
    )
    def test_first_outside_letter_used_is_named_from_either_half(self, k, l, shuffle_text):
        # the oracle: the first outside letter, in shuffle order, that some
        # enumerated filling holds; a shape no filling of which holds one
        # gets its polynomial
        alph = Alphabet(k, l)
        big = Alphabet(shuffle_text.count("t"), shuffle_text.count("u"))
        shuffle = parse_shuffle(shuffle_text, big)
        named = 0
        for n in range(5):
            for shape in partitions(n):
                for variant in VARIANTS:
                    fillings = enumerate_ssyt(shape, big, shuffle, variant)
                    used = {x for filling in fillings for _, x in filling.items()}
                    outside = [x for x in shuffle.order if x not in alph and x in used]
                    if not outside:
                        expected = weight_sum(shape, alph, shuffle, variant)
                        assert hook_schur(shape, alph, shuffle, variant) == expected
                        continue
                    named += 1
                    message = f"letter {outside[0]} outside alphabet {alph}"
                    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                        hook_schur(shape, alph, shuffle, variant)
        assert named

    def test_results_are_built_per_call(self, a22, order_ttuu):
        first = hook_schur((3, 1), a22, order_ttuu)
        second = hook_schur((3, 1), a22, order_ttuu)
        assert first == second and first is not second
        assert first._monos is not second._monos
        assert first._coeffs is not second._coeffs


class TestDecodedMonomials:
    """The decoded monomials that ``hook_schur`` keeps between calls."""

    @pytest.mark.parametrize("k,l,max_n", [(3, 3, 5), (2, 1, 6)])
    def test_cold_cache_gives_the_warm_results(self, k, l, max_n):
        alph = Alphabet(k, l)
        for n in range(max_n + 1):
            for shape in partitions(n):
                for shuffle in all_shuffles(alph):
                    for variant in VARIANTS:
                        warm = hook_schur(shape, alph, shuffle, variant)
                        schur._monomials.cache_clear()
                        cold = hook_schur(shape, alph, shuffle, variant)
                        assert cold == warm and cold.sorted_terms() == warm.sorted_terms()

    def test_results_share_their_monomials(self):
        alph = Alphabet(3, 3)
        first, second = all_shuffles(alph)[:2]
        a = dict(hook_schur((4, 2, 1), alph, first).sorted_terms())
        b = dict(hook_schur((4, 2, 1), alph, second).sorted_terms())
        assert a == b
        shared = {id(m) for m in a} & {id(m) for m in b}
        assert len(shared) == len(a)

    def test_cache_is_bounded(self, monkeypatch):
        # a bounded number of (k, l, field width) dicts, each emptied once it
        # holds more than the bound, so it never keeps more than the bound
        # and one result's terms
        maxsize = schur._monomials.cache_info().maxsize
        assert type(maxsize) is int and maxsize > 0
        monkeypatch.setattr(schur, "_KEPT_TERMS", 50)
        schur._monomials.cache_clear()
        alph = Alphabet(3, 3)
        sizes = []
        for shape in partitions(6):
            for shuffle in all_shuffles(alph)[:3]:
                poly = hook_schur(shape, alph, shuffle)
                sizes.append(len(schur._monomials(3, 3, 3)))
                assert sizes[-1] <= 50 + len(poly)
        assert max(sizes) > 50 and any(b < a for a, b in zip(sizes, sizes[1:]))
        schur._monomials.cache_clear()


class TestStripTables:
    """The per-shape strip tables that ``hook_schur`` keeps between calls."""

    @pytest.mark.parametrize("k,l", [(3, 3), (2, 2)])
    def test_cold_tables_give_the_warm_results(self, k, l):
        alph = Alphabet(k, l)
        for n in range(7):
            for shape in partitions(n):
                for shuffle in all_shuffles(alph):
                    warm = hook_schur(shape, alph, shuffle)
                    schur._strip_table.cache_clear()
                    assert hook_schur(shape, alph, shuffle) == warm

    def test_every_shuffle_of_a_shape_shares_one_table(self, monkeypatch):
        built = Counter()
        build = schur._build_strips

        def counted(shape, kind, mu, outward):
            built[shape, kind, mu, outward] += 1
            return build(shape, kind, mu, outward)

        monkeypatch.setattr(schur, "_build_strips", counted)
        schur._strip_table.cache_clear()
        alph = Alphabet(3, 3)
        shuffles = all_shuffles(alph)
        assert len(shuffles) == 20
        for shape in ((4, 2, 1), (3, 3, 1)):
            for shuffle in shuffles:
                for variant in VARIANTS:
                    hook_schur(shape, alph, shuffle, variant)
        assert built and max(built.values()) == 1
        assert {kind for _, kind, _, _ in built} == {"t", "u"}
        assert {outward for _, _, _, outward in built} == {True, False}

    def test_cache_is_bounded(self):
        maxsize = schur._strip_table.cache_info().maxsize
        assert type(maxsize) is int and maxsize > 0

    def test_four_threads_on_cold_tables_give_one_thread_s_results(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        alph = Alphabet(3, 3)
        grid = [(shape, shuffle) for shape in partitions(7) for shuffle in all_shuffles(alph)]

        def run(_):
            return [hook_schur(shape, alph, shuffle).sorted_terms() for shape, shuffle in grid]

        schur._strip_table.cache_clear()
        single = run(0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often, so misses interleave
        try:
            for _ in range(3):
                schur._strip_table.cache_clear()
                schur._monomials.cache_clear()
                with ThreadPoolExecutor(max_workers=4) as pool:
                    assert list(pool.map(run, range(4))) == [single] * 4
                # every sub-shape met has one id, and every list covers them all
                for shape in partitions(7):
                    ids, subs, lists = schur._strip_table(shape)
                    assert [ids[mu] for mu in subs] == list(range(len(subs)))
                    assert {len(found) for found in lists.values()} == {len(subs)}
        finally:
            sys.setswitchinterval(interval)


class TestCanonicalOrder:
    """``hook_schur`` hands its terms to ``Polynomial`` in canonical order."""

    @pytest.mark.parametrize(
        "k,l,shuffle_k,shuffle_l,max_n",
        [(3, 3, 3, 3, 8), (2, 1, 2, 1, 8), (3, 0, 3, 0, 8), (0, 3, 0, 3, 8),
         (3, 3, 2, 1, 6), (3, 3, 1, 2, 6), (3, 3, 0, 2, 6), (3, 3, 3, 0, 6)],
    )
    def test_terms_come_sorted(self, k, l, shuffle_k, shuffle_l, max_n):
        # n = 0..8 crosses field widths of 0 to 4 bits; the last four take
        # shuffles that lack some of the alphabet's letters
        alph = Alphabet(k, l)
        for n in range(max_n + 1):
            for shape in partitions(n):
                for shuffle in all_shuffles(Alphabet(shuffle_k, shuffle_l)):
                    for variant in VARIANTS:
                        p = hook_schur(shape, alph, shuffle, variant)
                        monos, coeffs = p._monos, p._coeffs
                        assert len(monos) == len(coeffs)
                        assert all(a > b for a, b in zip(monos, monos[1:]))
                        assert all(type(c) is int and c for c in coeffs)


class TestCountingIdentity:
    def test_one_of_each_kind(self):
        alph = Alphabet(1, 1)
        order = kl_shuffle(alph)
        outcome = rsk_counting_identity(alph, 2, order, REGULAR_REGULAR)
        assert outcome == {"lhs": 4, "rhs": 4, "equal": True}

    def test_single_letter_words(self):
        for alph in (Alphabet(2, 1), Alphabet(1, 3)):
            outcome = rsk_counting_identity(alph, 1, kl_shuffle(alph), REGULAR_REGULAR)
            assert outcome["lhs"] == outcome["rhs"] == alph.size

    def test_three_letter_alphabet(self):
        alph = Alphabet(2, 1)
        outcome = rsk_counting_identity(alph, 3, kl_shuffle(alph), REGULAR_REGULAR)
        assert outcome["lhs"] == outcome["rhs"] == 27

    @pytest.mark.parametrize("k,l", [(2, 2), (2, 1), (0, 2), (3, 0)])
    def test_counts_the_enumerated_fillings_under_every_variant(self, k, l):
        alph = Alphabet(k, l)
        for n in range(6):
            for shuffle in all_shuffles(alph):
                for variant in VARIANTS:
                    lhs = sum(
                        len(enumerate_ssyt(shape, alph, shuffle, variant)) * count_syt(shape)
                        for shape in partitions(n)
                    )
                    rhs = alph.size**n
                    outcome = rsk_counting_identity(alph, n, shuffle, variant)
                    assert outcome == {"lhs": lhs, "rhs": rhs, "equal": True}

    @pytest.mark.parametrize("k,l", [(2, 2), (3, 3)])
    def test_shuffle_of_a_sub_alphabet_counts_its_own_words(self, k, l):
        # the fillings use the shuffle's letters only, so the words they
        # count are the words over those letters
        alph = Alphabet(k, l)
        smaller = [Alphabet(i, j) for i in range(k + 1) for j in range(l + 1) if 0 < i + j < k + l]
        for sub in smaller:
            for shuffle in all_shuffles(sub):
                for n, variant in product(range(5), VARIANTS):
                    outcome = rsk_counting_identity(alph, n, shuffle, variant)
                    assert outcome["equal"], (sub, str(shuffle), n, variant, outcome)
                    assert outcome["rhs"] == sub.size**n

    def test_a_shuffle_letter_outside_the_alphabet_still_raises(self):
        shuffle = all_shuffles(Alphabet(2, 1))[0]
        with pytest.raises(ValueError, match="outside alphabet"):
            rsk_counting_identity(Alphabet(1, 1), 2, shuffle, REGULAR_REGULAR)


def sub_shapes(shape):
    """Every shape inside ``shape``, zero-padded to its length."""
    return [
        mu for mu in product(*(range(length + 1) for length in shape))
        if all(a >= b for a, b in zip(mu, mu[1:]))
    ]


def is_strip(inner, outer, kind):
    """Whether outer/inner holds at most one cell per column (kind t) or per
    row (kind u), checked cell by cell."""
    if any(a > b for a, b in zip(inner, outer)):
        return False
    cells = [(r, c) for r, (a, b) in enumerate(zip(inner, outer)) for c in range(a, b)]
    lines = [c if kind == "t" else r for r, c in cells]
    return len(lines) == len(set(lines))


class TestStripEnumerator:
    """``_build_strips`` against a cell-by-cell check, both ways."""

    @pytest.mark.parametrize("n", range(7))
    def test_matches_brute_force(self, n):
        for shape in partitions(n):
            subs = sub_shapes(shape)
            for kind in "tu":
                out = {mu: set(schur._build_strips(shape, kind, mu, True)) for mu in subs}
                back = {nu: set(schur._build_strips(shape, kind, nu, False)) for nu in subs}
                for mu, nu in product(subs, subs):
                    size = sum(nu) - sum(mu)
                    expected = is_strip(mu, nu, kind)
                    assert ((nu, size) in out[mu]) == expected, (shape, kind, mu, nu)
                    assert ((mu, size) in back[nu]) == expected, (shape, kind, mu, nu)
                # every strip listed is one of those pairs, with its size
                assert all(nu in subs and s == sum(nu) - sum(mu)
                           for mu in subs for nu, s in out[mu])
                assert all(mu in subs and s == sum(nu) - sum(mu)
                           for nu in subs for mu, s in back[nu])
