import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rec, tab
from oracles import content_type, is_subtableau, region2_shape_ok, weight_monomial, word_type
from superrsk import (
    VARIANTS,
    Alphabet,
    RecordingTableau,
    StrictnessProfile,
    Tableau,
    Word,
    all_shuffles,
    classify_regions,
    is_standard,
    insert_word,
    is_valid,
    parse_shuffle,
    region2_components,
    t,
    u,
    variant_profile,
)
from superrsk.polynomial import Monomial
from superrsk.tableau import (
    check_shape,
    recording_from_json,
    recording_to_json,
    render_recording,
    render_tableau,
    tableau_from_json,
    tableau_to_json,
)

REGULAR = StrictnessProfile("columns", "rows")

# recurring fixtures: the two insertion tableaux of the seven-letter example
P_A = tab("t1 u1 t2 / u1 t2 u2 / t3")
P_B = tab("t1 u1 u2 / u1 t2 t2 / t3")
WEIGHT_T = tab("t1 t1 u2 u3 / t2 t3 u2 / u1 u3 / u1")


class TestShape:
    def test_shape_of_small_example(self):
        assert tab("t1 t2 u2 / u1").shape == (3, 1)

    def test_empty(self):
        assert Tableau().shape == ()
        assert Tableau().size == 0

    def test_weight_example_shape(self):
        assert WEIGHT_T.shape == (4, 3, 2, 1)

    def test_invalid_diagram_rejected(self):
        with pytest.raises(ValueError):
            Tableau(((t(1),), (t(1), t(2))))
        with pytest.raises(ValueError):
            check_shape((1, 2))
        with pytest.raises(ValueError):
            check_shape((2, 0))

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError, match="^tableau rows must be non-empty$"):
            Tableau(((),))


class TestRecordingTableau:
    @pytest.mark.parametrize(
        "rows,message",
        [
            (((1.9, True),), "recording entries must be integers, got 1.9"),
            ((("1", "2"),), "recording entries must be integers, got '1'"),
            (((0,),), "recording entries must be positive"),
        ],
        ids=["float-and-bool", "strings", "zero"],
    )
    def test_rejects_non_positive_or_non_int_entries(self, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RecordingTableau(rows)


class TestIsValid:
    def test_small_example_under_its_order(self, a22, order_ttuu):
        assert is_valid(tab("t1 t2 u2 / u1"), order_ttuu, REGULAR)

    def test_same_tableau_under_opposite_order(self, order_uutt):
        # row 1 = t1, t2, u2 is not weakly increasing when all u's come first
        assert not is_valid(tab("t1 t2 u2 / u1"), order_uutt, REGULAR)

    @pytest.mark.parametrize("axes", [("diagonal", "rows"), ("rows", "diagonal")], ids=["t", "u"])
    def test_profile_rejects_unknown_axis(self, axes):
        message = "^strictness axis must be 'rows' or 'columns': 'diagonal'$"
        with pytest.raises(ValueError, match=message):
            StrictnessProfile(*axes)

    def test_empty(self, order_ttuu):
        assert is_valid(Tableau(), order_ttuu, REGULAR)

    def test_strictness_axes(self, order_ttuu):
        # equal t's may share a row but not a column; vice versa for u's
        assert is_valid(tab("t1 t1"), order_ttuu, REGULAR)
        assert not is_valid(tab("t1 / t1"), order_ttuu, REGULAR)
        assert not is_valid(tab("u1 u1"), order_ttuu, REGULAR)
        assert is_valid(tab("u1 / u1"), order_ttuu, REGULAR)

    def test_dual_profile_flips_strictness(self, order_ttuu):
        dual_both = StrictnessProfile("rows", "columns")
        assert not is_valid(tab("t1 t1"), order_ttuu, dual_both)
        assert is_valid(tab("t1 / t1"), order_ttuu, dual_both)
        assert is_valid(tab("u1 u1"), order_ttuu, dual_both)
        assert not is_valid(tab("u1 / u1"), order_ttuu, dual_both)

    def test_agrees_with_subsequence_oracle(self):
        # independent predicate: full-axis pairwise comparisons
        def oracle(tableau, shuffle, profile):
            lines = {"rows": list(tableau.rows), "columns": []}
            width = len(tableau.rows[0]) if tableau.rows else 0
            for c in range(width):
                lines["columns"].append(
                    [row[c] for row in tableau.rows if len(row) > c]
                )
            for axis in ("rows", "columns"):
                for line in lines[axis]:
                    for i in range(len(line)):
                        for j in range(i + 1, len(line)):
                            if shuffle.less(line[j], line[i]):
                                return False
            strict_axis = {"t": profile.t_strict_in, "u": profile.u_strict_in}
            for kind in ("t", "u"):
                for line in lines[strict_axis[kind]]:
                    sub = [x for x in line if x.kind == kind]
                    if len(sub) != len(set(sub)):
                        return False
            return True

        alph = Alphabet(1, 1)
        letters = alph.letters()
        shuffles = [parse_shuffle(s, alph) for s in ("t1<u1", "u1<t1")]
        profiles = [
            StrictnessProfile(a, b)
            for a in ("rows", "columns")
            for b in ("rows", "columns")
        ]
        shapes = [(1,), (2,), (1, 1), (2, 1), (2, 2)]
        for shape in shapes:
            cells = sum(shape)
            for filling in product(letters, repeat=cells):
                rows, i = [], 0
                for length in shape:
                    rows.append(tuple(filling[i : i + length]))
                    i += length
                tableau = Tableau(tuple(rows))
                for s in shuffles:
                    for profile in profiles:
                        assert is_valid(tableau, s, profile) == oracle(
                            tableau, s, profile
                        )


def letter_level_is_valid(tableau, shuffle, profile):
    """Reference: neighbour comparisons on letters through Shuffle.less."""
    cells = dict(tableau.items())
    if len(cells) < 2:
        return True
    for letter in cells.values():
        shuffle.rank(letter)  # a letter outside the alphabet raises here
    strict_axis = {"t": profile.t_strict_in, "u": profile.u_strict_in}
    for (r, c), e in cells.items():
        for axis, nbr in (("rows", cells.get((r, c - 1))), ("columns", cells.get((r - 1, c)))):
            if nbr is None:
                continue
            if shuffle.less(e, nbr) or (nbr == e and strict_axis[e.kind] == axis):
                return False
    return True


@st.composite
def fillings(draw):
    """A tableau, often one produced by insertion, with some cells overwritten
    by random letters, possibly from outside the alphabet; plus an order and a
    profile."""
    k = draw(st.integers(0, 3))
    l = draw(st.integers(1 if k == 0 else 0, 3))
    alph = Alphabet(k, l)
    shuffles = all_shuffles(alph)
    shuffle = shuffles[draw(st.integers(0, len(shuffles) - 1))]
    letters = alph.letters()
    pool = letters + (t(k + 1), u(l + 1))
    word = draw(st.lists(st.sampled_from(letters), max_size=9))
    p = insert_word(Word(tuple(word)), shuffle, draw(st.sampled_from(VARIANTS))).p
    rows = [list(row) for row in p.rows]
    cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
    for r, c in draw(st.lists(st.sampled_from(cells), max_size=3)) if cells else ():
        rows[r][c] = draw(st.sampled_from(pool))
    profile = StrictnessProfile(
        draw(st.sampled_from(("rows", "columns"))), draw(st.sampled_from(("rows", "columns")))
    )
    return Tableau(tuple(tuple(row) for row in rows)), shuffle, profile


def outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


@given(fillings())
@settings(max_examples=400, deadline=None)
def test_is_valid_matches_letter_level_reference(case):
    assert outcome(is_valid, *case) == outcome(letter_level_is_valid, *case)


def test_is_valid_examples_of_each_outcome():
    order = parse_shuffle("t1<u1", Alphabet(1, 1))
    assert is_valid(tab("t9"), order, REGULAR)  # one cell: nothing to compare
    with pytest.raises(ValueError, match="letter t9 is not in alphabet"):
        is_valid(tab("t1 t9"), order, REGULAR)
    produced = insert_word(Word((u(1), t(1), u(1))), order, VARIANTS[0]).p
    assert is_valid(produced, order, variant_profile(VARIANTS[0]))


class TestIsStandard:
    def test_examples(self):
        assert is_standard(rec("1 2 3 / 4"))
        assert not is_standard(rec("2 1"))
        assert is_standard(RecordingTableau())

    def test_column_violation_and_gaps(self):
        assert is_standard(rec("1 3 / 2 4"))
        assert is_standard(rec("1 2 / 3 4"))
        assert not is_standard(rec("1 2 / 2 3"))  # repeated entry
        assert not is_standard(rec("1 3 / 4 2"))
        assert not is_standard(rec("1 2 / 4 5"))  # entries must be exactly 1..n

    def test_column_strictness(self):
        assert not is_standard(rec("1 2 / 1 3"))


class TestContentAndWeight:
    def test_weight_example(self):
        alph = Alphabet(3, 3)
        tv = content_type(WEIGHT_T, alph)
        assert tv.alpha == (2, 1, 1)
        assert tv.beta == (2, 2, 2)
        assert tv.total == WEIGHT_T.size == 10
        assert weight_monomial(WEIGHT_T, alph) == Monomial((2, 1, 1), (2, 2, 2))
        assert weight_monomial(WEIGHT_T, alph).render() == "x1^2 x2 x3 y1^2 y2^2 y3^2"

    def test_empty(self, a22):
        assert content_type(Tableau(), a22).alpha == (0, 0)
        assert weight_monomial(Tableau(), a22) == Monomial((0, 0), (0, 0))

    def test_word_type(self, a22):
        assert word_type([u(2), t(1), t(2), u(1)], a22).alpha == (1, 1)
        assert word_type([u(2), t(1), t(2), u(1)], a22).beta == (1, 1)

    def test_single_cell(self, a22):
        assert weight_monomial(tab("t1"), a22) == Monomial((1, 0), (0, 0))

    def test_letter_outside_alphabet(self):
        with pytest.raises(ValueError):
            content_type(tab("t3"), Alphabet(2, 2))


ORDER_A = parse_shuffle("t1<u1<t2<u2<t3", Alphabet(3, 2))
ORDER_B = parse_shuffle("t1<u1<u2<t2<t3", Alphabet(3, 2))
PAIR = (t(2), u(2))


class TestClassifyRegions:
    def test_seven_letter_example(self):
        regions = classify_regions(P_A, ORDER_A, PAIR)
        assert {c for c, lab in regions.items() if lab == 1} == {(1, 1), (1, 2), (2, 1)}
        assert {c for c, lab in regions.items() if lab == 2} == {(1, 3), (2, 2), (2, 3)}
        assert {c for c, lab in regions.items() if lab == 3} == {(3, 1)}

    def test_low_and_high_cells_agree_across_adjacent_orders(self):
        regions_a = classify_regions(P_A, ORDER_A, PAIR)
        regions_b = classify_regions(P_B, ORDER_B, PAIR)
        for label in (1, 3):
            assert {c for c, lab in regions_a.items() if lab == label} == {
                c for c, lab in regions_b.items() if lab == label
            }

    def test_partitions_all_cells(self):
        regions = classify_regions(P_A, ORDER_A, PAIR)
        assert set(regions) == {cell for cell, _ in P_A.items()}

    def test_same_tableau_classified_alike_under_either_adjacent_order(self):
        # off-pair letters compare identically under the two orders
        assert classify_regions(P_A, ORDER_A, PAIR) == classify_regions(
            P_A, ORDER_B, PAIR
        )

    def test_no_pair_letters_gives_empty_region2(self):
        regions = classify_regions(tab("t1 u1"), ORDER_A, PAIR)
        assert all(lab != 2 for lab in regions.values())

    def test_pair_must_be_order_adjacent(self, a22, order_ttuu):
        with pytest.raises(ValueError):
            classify_regions(tab("t1"), order_ttuu, (t(1), u(1)))

    def test_pair_kinds_checked(self, order_ttuu):
        with pytest.raises(ValueError):
            classify_regions(tab("t1"), order_ttuu, (u(1), u(2)))


class TestRegion2Components:
    def test_single_component(self):
        regions = classify_regions(P_A, ORDER_A, PAIR)
        comps = region2_components(regions)
        assert comps == frozenset({frozenset({(1, 3), (2, 2), (2, 3)})})

    def test_empty(self):
        assert region2_components({}) == frozenset()

    def test_diagonal_contact_is_not_adjacency(self):
        regions = {(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 3}
        comps = region2_components(regions)
        assert comps == frozenset({frozenset({(1, 2)}), frozenset({(2, 1)})})


class TestRegion2ShapeOk:
    def test_both_orientations(self):
        assert region2_shape_ok(P_A, ORDER_A, PAIR)
        assert region2_shape_ok(P_B, ORDER_B, PAIR)

    def test_empty_region2(self):
        assert region2_shape_ok(tab("t1 u1"), ORDER_A, PAIR)

    def test_violating_row(self):
        # with t2 < u2, a non-rightmost region-2 row cell must hold t2
        bad = tab("u2 t2")
        assert not region2_shape_ok(bad, ORDER_A, PAIR)

    def test_violating_column(self):
        # with t2 < u2, a non-topmost region-2 column cell must hold u2
        bad = tab("u2 / t2")
        assert not region2_shape_ok(bad, ORDER_A, PAIR)


class TestIsSubtableau:
    def test_corner_cases(self):
        big = tab("t1 t2 u2 / u1")
        assert is_subtableau(tab("t1"), big)
        assert is_subtableau(big, big)
        assert not is_subtableau(tab("t2"), big)
        assert is_subtableau(Tableau(), big)

    def test_shape_containment_required(self):
        assert not is_subtableau(tab("t1 t2 / u1"), tab("t1 t2"))

    def test_partial_order_on_small_family(self, a22, order_ttuu):
        family = [
            Tableau(),
            tab("t1"),
            tab("t1 t2"),
            tab("t1 t2 / u1"),
            tab("t1 u1"),
            tab("u1"),
        ]
        for x in family:
            assert is_subtableau(x, x)
        for x in family:
            for y in family:
                if is_subtableau(x, y) and is_subtableau(y, x):
                    assert x == y
        for x in family:
            for y in family:
                for z in family:
                    if is_subtableau(x, y) and is_subtableau(y, z):
                        assert is_subtableau(x, z)


class TestSerialization:
    def test_tableau_json_round_trip(self):
        data = tableau_to_json(P_A)
        assert data == {"rows": [["t1", "u1", "t2"], ["u1", "t2", "u2"], ["t3"]]}
        assert tableau_from_json(data) == P_A

    def test_recording_json_round_trip(self):
        q = rec("1 2 3 / 4")
        data = recording_to_json(q)
        assert data == {"rows": [[1, 2, 3], [4]]}
        assert recording_from_json(data) == q

    def test_render(self):
        assert render_tableau(tab("t1 t2 u2 / u1")) == "t1 t2 u2\nu1"
        assert render_recording(rec("1 2 3 / 4")) == "1 2 3\n4"
        assert render_tableau(Tableau()) == ""
