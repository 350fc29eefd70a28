"""Acceptance gate: every criterion runs at its stated scale and tolerance.

All comparisons are exact (tableaux, recording tableaux, integers and
polynomials are discrete objects).  Each test prints one pass line; a failed
assertion marks the criterion failed.
"""

import time

import pytest

from conftest import rec, tab
from oracles import unmap_tableau, weight_monomial
from superrsk import (
    DUAL_DUAL,
    DUAL_REGULAR,
    REGULAR_DUAL,
    REGULAR_REGULAR,
    VARIANTS,
    Alphabet,
    PendingAction,
    Word,
    all_shuffles,
    hook_schur,
    insert_letter,
    insert_word,
    parse_shuffle,
    parse_word,
    standardize_u,
    t,
    u,
)
from superrsk.polynomial import Monomial, Polynomial
from superrsk.verify import (
    check_cell_monotonicity_grid,
    check_counting_identity,
    check_dual_regular_agreement_grid,
    check_hook_schur_invariance,
    check_path_monotonicity_grid,
    check_region1_agreement_grid,
    check_restriction_subtableau_grid,
    check_round_trip_grid,
    check_shape_invariance,
    check_trace_alignment_grid,
    check_weight_preserving_bijection_grid,
)

A22 = Alphabet(2, 2)


def _report_ok(report):
    assert report.passed, (
        f"{report.check_name} {report.parameters}: "
        f"{len(report.failures)} failures, first: "
        f"{report.failures[0] if report.failures else None}"
    )


def test_criterion_1_golden_examples():
    started = time.perf_counter()

    # four-letter word under two opposite orders
    order_a = parse_shuffle("t1<t2<u1<u2", A22)
    order_b = parse_shuffle("u1<u2<t1<t2", A22)
    word = parse_word("u2,t1,t2,u1", A22)
    result_a = insert_word(word, order_a, REGULAR_REGULAR)
    result_b = insert_word(word, order_b, REGULAR_REGULAR)
    assert result_a.p == tab("t1 t2 u2 / u1")
    assert result_b.p == tab("u1 u2 t2 / t1")
    assert result_a.q == result_b.q == rec("1 2 3 / 4")

    # single-letter cascade: all four intermediate frames
    order5 = parse_shuffle("t1<u1<t2<u2<t3", Alphabet(3, 2))
    start = tab("u1 t2 t2 / u1 u2 / t3")
    final, steps = insert_letter(start, t(1), order5, REGULAR_REGULAR)
    assert [s.state for s in steps] == [
        tab("t1 t2 t2 / u1 u2 / t3"),
        tab("t1 u1 t2 / u1 u2 / t3"),
        tab("t1 u1 t2 / u1 t2 / t3"),
        tab("t1 u1 t2 / u1 t2 u2 / t3"),
    ]
    assert steps[-1].settled_cell == (2, 3)
    assert final == tab("t1 u1 t2 / u1 t2 u2 / t3")

    # seven-letter word: path lengths, total, two intermediate states
    word7 = parse_word("u1,t3,t2,u2,t2,u1,t1", Alphabet(3, 2))
    trace7 = insert_word(word7, order5, REGULAR_REGULAR).trace
    assert trace7.path_lengths == (1, 1, 2, 2, 1, 2, 4)
    assert trace7.total == 13
    assert trace7.state_after(7) == tab("u1 t2 t2 / u2 / t3")
    assert trace7.state_after(8) == tab("u1 t2 t2 / u1 / t3")

    # two-letter word: both traces and lengths
    alph11 = Alphabet(1, 1)
    order_tu, order_ut = all_shuffles(alph11)
    two = Word((t(1), u(1)))
    ra = insert_word(two, order_tu, REGULAR_REGULAR)
    rb = insert_word(two, order_ut, REGULAR_REGULAR)
    assert ra.trace.path_lengths == (1, 1)
    assert rb.trace.path_lengths == (1, 2)
    assert [s.state for s in ra.trace.steps] == [tab("t1"), tab("t1 / u1")]
    assert [s.state for s in rb.trace.steps] == [tab("t1"), tab("u1"), tab("u1 / t1")]
    assert rb.trace.steps[1].bumped == PendingAction(t(1), "row", 2)

    # dual u-rule, four letters
    alph21 = Alphabet(2, 1)
    order_dual = parse_shuffle("u1<t1<t2", alph21)
    dual = insert_word(parse_word("u1,t1,t2,u1", alph21), order_dual, REGULAR_DUAL)
    assert dual.p == tab("u1 u1 t2 / t1")
    assert dual.q == rec("1 2 3 / 4")

    # standardization of repeated u's and its cellwise mimicry
    word5 = parse_word("t2,u2,u1,u1,t1", A22)
    std = standardize_u(word5, order_a)
    assert str(std.word) == "t2,u3,u2,u1,t1"
    assert str(std.shuffle) == "t1<t2<u1<u2<u3"
    original = insert_word(word5, order_a, REGULAR_DUAL)
    relabelled = insert_word(std.word, std.shuffle, REGULAR_DUAL)
    assert original.p == tab("t1 u1 u1 u2 / t2")
    assert relabelled.p == tab("t1 u1 u2 u3 / t2")
    assert unmap_tableau(std, relabelled.p) == original.p

    # weight monomial of a ten-cell tableau
    weight_tab = tab("t1 t1 u2 u3 / t2 t3 u2 / u1 u3 / u1")
    assert weight_monomial(weight_tab, Alphabet(3, 3)) == Monomial((2, 1, 1), (2, 2, 2))

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"golden examples took {elapsed:.2f}s"
    print(f"criterion 1: PASS - golden examples bit-exact ({elapsed:.3f}s)")


def test_criterion_2_shape_invariance_regular():
    started = time.perf_counter()
    for n in range(1, 6):
        report = check_shape_invariance(A22, n, REGULAR_REGULAR)
        _report_ok(report)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 2: PASS - shape invariance, 6 orders, n<=5 ({elapsed:.2f}s)")


@pytest.mark.parametrize("variant", [REGULAR_DUAL, DUAL_REGULAR, DUAL_DUAL])
def test_criterion_3_shape_invariance_variants(variant):
    for n in range(1, 5):
        report = check_shape_invariance(A22, n, variant)
        _report_ok(report)
    print(f"criterion 3: PASS - shape invariance for {variant.name}, n<=4")


def test_criterion_4_round_trip():
    for variant in VARIANTS:
        for n in range(0, 5):
            report = check_round_trip_grid(A22, n, variant)
            _report_ok(report)
    print("criterion 4: PASS - reverse after insert is the identity, "
          "all variants, n<=4")


def test_criterion_5_trace_alignment():
    witnesses: dict[str, int] = {}
    for n in range(1, 6):
        report = check_trace_alignment_grid(A22, n)
        _report_ok(report)
        for count, times in report.stats["witness_counts"].items():
            witnesses[count] = witnesses.get(count, 0) + times
    print(f"criterion 5: PASS - adjacent-order traces align, n<=5 "
          f"(witness multiplicities {witnesses})")


def test_criterion_6_step_lemma_suites():
    for n in range(1, 6):
        _report_ok(check_path_monotonicity_grid(A22, n, REGULAR_REGULAR))
        _report_ok(check_cell_monotonicity_grid(A22, n, REGULAR_REGULAR))
        _report_ok(check_region1_agreement_grid(A22, n))
    for n in range(1, 5):
        _report_ok(check_restriction_subtableau_grid(A22, n))
        _report_ok(check_dual_regular_agreement_grid(A22, n))
    # measured but not asserted: the same monotonicity under dual rules
    observed = {}
    for variant in (REGULAR_DUAL, DUAL_REGULAR, DUAL_DUAL):
        path = check_path_monotonicity_grid(A22, 4, variant)
        cell = check_cell_monotonicity_grid(A22, 4, variant)
        observed[variant.name] = (len(path.failures), len(cell.failures))
    print("criterion 6: PASS - step lemma suites clean "
          f"(dual-rule monotonicity violations observed at n=4: {observed})")


def test_criterion_7_hook_schur_invariance():
    for n in range(0, 6):
        _report_ok(check_hook_schur_invariance(A22, n))

    alph11 = Alphabet(1, 1)
    x1 = Monomial((1,), (0,))
    y1 = Monomial((0,), (1,))
    for shuffle in all_shuffles(alph11):
        assert hook_schur((1,), alph11, shuffle) == Polynomial({x1: 1, y1: 1})
        assert hook_schur((2,), alph11, shuffle) == Polynomial({x1 * x1: 1, x1 * y1: 1})
    print("criterion 7: PASS - hook Schur polynomials ignore the order, n<=5")


def test_criterion_8_counting_identity():
    alphabets = [
        Alphabet(k, l)
        for k in range(0, 5)
        for l in range(0, 5)
        if 0 < k + l <= 4
    ]
    for alphabet in alphabets:
        for n in range(1, 6):
            _report_ok(check_counting_identity(alphabet, n))
    print(f"criterion 8: PASS - counting identity on {len(alphabets)} alphabets, "
          "n<=5, all orders and variants")


def test_criterion_9_weight_preserving_bijection():
    report = check_weight_preserving_bijection_grid(A22, 4)
    _report_ok(report)
    assert report.cases_run > 0
    print("criterion 9: PASS - order change is a content-preserving bijection "
          f"for all 4-cell shapes ({report.cases_run} transports, "
          f"distinct maps {report.stats['distinct_maps_by_shape']})")
