import importlib.util
import json
import random
import sys
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import combinations, product
from math import comb, perm
from pathlib import Path

import pytest

from conftest import tab
from oracles import (
    _restricted_p,
    all_words,
    check_cell_monotonicity,
    check_dual_regular_agreement,
    check_path_monotonicity,
    check_region1_agreement,
    check_restriction_subtableau,
    claim_cases,
    is_subtableau,
)
from snapshot_reference import _sim, _states, region2_stats, states_equivalent
from superrsk import (
    DUAL_DUAL,
    REGULAR_DUAL,
    REGULAR_REGULAR,
    VARIANTS,
    Alphabet,
    InsertionResult,
    InsertionTrace,
    PendingAction,
    Sample,
    Tableau,
    Word,
    adjacent_transposition,
    align_traces,
    all_shuffles,
    change_shuffle,
    enumerate_ssyt,
    enumerate_syt,
    insert_word,
    is_valid,
    parse_shuffle,
    parse_word,
    partitions,
    reverse_word,
    t,
    u,
    variant_profile,
)
from superrsk.insertion import _SEARCH
from superrsk.verify import (
    _INCREMENTS,
    Alignment,
    AlignmentError,
    CaseFailure,
    check_cell_monotonicity_grid,
    check_converse_round_trip_grid,
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

ALPH32 = Alphabet(3, 2)
ORDER_A = parse_shuffle("t1<u1<t2<u2<t3", ALPH32)
ORDER_B = parse_shuffle("t1<u1<u2<t2<t3", ALPH32)
WORD7 = parse_word("u1,t3,t2,u2,t2,u1,t1", ALPH32)
P_A = tab("t1 u1 t2 / u1 t2 u2 / t3")
P_B = tab("t1 u1 u2 / u1 t2 t2 / t3")


class TestStatesEquivalent:
    def test_final_states_of_seven_letter_word(self):
        assert states_equivalent((P_A, None), (P_B, None), ORDER_A, ORDER_B)

    def test_symmetric(self):
        assert states_equivalent((P_B, None), (P_A, None), ORDER_B, ORDER_A)

    def test_first_states_are_equal(self):
        ta = insert_word(WORD7, ORDER_A, REGULAR_REGULAR).trace
        tb = insert_word(WORD7, ORDER_B, REGULAR_REGULAR).trace
        assert ta.state_after(1) == tb.state_after(1)
        pending = PendingAction(t(3), "row", 1)
        assert states_equivalent(
            (ta.state_after(1), pending), (tb.state_after(1), pending), ORDER_A, ORDER_B
        )

    def test_changed_low_region_entry_breaks_equivalence(self):
        mutated = tab("u1 u1 u2 / u1 t2 t2 / t3")
        assert not states_equivalent((P_A, None), (mutated, None), ORDER_A, ORDER_B)

    def test_mismatched_pending_breaks_equivalence(self):
        one = PendingAction(u(1), "column", 1)
        other = PendingAction(u(1), "column", 2)
        assert not states_equivalent((P_A, one), (P_B, other), ORDER_A, ORDER_B)
        assert not states_equivalent((P_A, one), (P_B, None), ORDER_A, ORDER_B)

    def test_component_census_matters(self):
        # same pair-region cells, same component, but different t-counts
        left = tab("t2 t2")
        right = tab("t2 u2")
        assert not states_equivalent((left, None), (right, None), ORDER_A, ORDER_B)
        # and same census with mirrored entries is accepted
        mirrored = tab("u2 t2")  # census (1, 1) either way round
        assert states_equivalent((right, None), (mirrored, None), ORDER_A, ORDER_B)

    def test_requires_adjacent_orders(self, a22, order_ttuu, order_uutt):
        with pytest.raises(ValueError):
            states_equivalent((P_A, None), (P_B, None), order_ttuu, order_uutt)


class TestRegion2Stats:
    def test_census_of_seven_letter_word(self):
        stats = region2_stats(P_A, ORDER_A, (t(2), u(2)))
        assert stats == {frozenset({(1, 3), (2, 2), (2, 3)}): (2, 1)}
        stats_b = region2_stats(P_B, ORDER_B, (t(2), u(2)))
        assert stats_b == {frozenset({(1, 3), (2, 2), (2, 3)}): (2, 1)}


class TestAlignTraces:
    def test_two_letter_word(self):
        alph = Alphabet(1, 1)
        A, B = all_shuffles(alph)
        word = Word((t(1), u(1)))
        trace_a = insert_word(word, A, REGULAR_REGULAR).trace
        trace_b = insert_word(word, B, REGULAR_REGULAR).trace
        assert (trace_a.total, trace_b.total) == (2, 3)
        alignment = align_traces(trace_a, A, trace_b, B)
        assert alignment.pairs == ((1, 1), (2, 3))
        assert alignment.witness_count == 1

    def test_endpoints_and_matched_pairs(self):
        trace_a = insert_word(WORD7, ORDER_A, REGULAR_REGULAR).trace
        trace_b = insert_word(WORD7, ORDER_B, REGULAR_REGULAR).trace
        alignment = align_traces(trace_a, ORDER_A, trace_b, ORDER_B)
        assert alignment.pairs[0] == (1, 1)
        assert alignment.pairs[-1] == (trace_a.total, trace_b.total)
        for (p, q), (np_, nq) in zip(alignment.pairs, alignment.pairs[1:]):
            assert (np_ - p, nq - q) in ((1, 1), (1, 2), (2, 1))

    def test_matched_pairs_all_equivalent(self, a22):
        # rebuild each matched state and confirm equivalence independently
        shuffles = all_shuffles(a22)
        adjacent = [
            (a, b)
            for i, a in enumerate(shuffles)
            for b in shuffles[i + 1 :]
            if align_pair_ok(a, b)
        ]
        for word in (parse_word("u2,t1,t2,u1", a22), parse_word("t1,u1,u1", a22)):
            for a, b in adjacent:
                trace_a = insert_word(word, a, REGULAR_REGULAR).trace
                trace_b = insert_word(word, b, REGULAR_REGULAR).trace
                alignment = align_traces(trace_a, a, trace_b, b)
                states_a = _states(trace_a)
                states_b = _states(trace_b)
                for p, q in alignment.pairs:
                    assert states_equivalent(states_a[p - 1], states_b[q - 1], a, b)

    def test_rejects_non_adjacent(self, a22, order_ttuu, order_uutt):
        word = parse_word("t1,u1", a22)
        trace_a = insert_word(word, order_ttuu, REGULAR_REGULAR).trace
        trace_b = insert_word(word, order_uutt, REGULAR_REGULAR).trace
        with pytest.raises(ValueError):
            align_traces(trace_a, order_ttuu, trace_b, order_uutt)

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_a_letter_outside_the_alphabet_is_a_value_error(self, side):
        A, B = all_shuffles(Alphabet(1, 1))
        wide = all_shuffles(Alphabet(2, 1))[0]  # t1<t2<u1
        foreign = InsertionTrace((1,), ((1, 1, 0, None),), wide.order)  # its order holds t2
        traces = [insert_word(Word((t(1),)), s, REGULAR_REGULAR).trace for s in (A, B)]
        traces["ab".index(side)] = foreign
        with pytest.raises(ValueError, match=r"^letter t2 outside alphabet \(k=1, l=1\)$"):
            align_traces(traces[0], A, traces[1], B)

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_a_trace_made_under_another_shuffle_is_a_value_error(self, a22, side):
        # a trace made under t1<u1<u2<t2 and passed as one under a neighbour
        # has no alignment to (5, 6); the mismatch is the caller's, not the lemma's
        a, b = parse_shuffle("t1<t2<u1<u2", a22), parse_shuffle("t1<u1<t2<u2", a22)
        word = parse_word("t1,t2,u2,t1", a22)
        traces = [insert_word(word, s, REGULAR_REGULAR).trace for s in (a, b)]
        traces["ab".index(side)] = insert_word(
            word, parse_shuffle("t1<u1<u2<t2", a22), REGULAR_REGULAR
        ).trace
        own = str(a if side == "a" else b)
        with pytest.raises(ValueError, match=rf"^trace order t1<u1<u2<t2 is not shuffle {own}$"):
            align_traces(traces[0], a, traces[1], b)

    @pytest.mark.parametrize("word", ["t1", "u1,t3,t2", "u1,t3,t2,u2,t2,u1,t1"])
    def test_equal_signatures_count_every_increment_path(self, word, monkeypatch):
        # with every step state alike, each step pair is reached: the count is
        # the number of increment paths from (1, 1) to the final steps, and the
        # path steps back to the first reached predecessor in increment order
        import superrsk.verify as verify

        monkeypatch.setattr(verify._States, "_classify", lambda self, cells, values: 0)
        monkeypatch.setattr(verify._Stream, "_pending", lambda self, log, s: None)
        v = parse_word(word, ALPH32)
        trace_a, trace_b = (insert_word(v, s, REGULAR_REGULAR).trace for s in (ORDER_A, ORDER_B))
        sa, sb = trace_a.total, trace_b.total
        paths = {(1, 1): 1}
        for p, q in product(range(1, sa + 1), range(1, sb + 1)):
            if (p, q) != (1, 1):
                paths[p, q] = sum(paths.get((p - dp, q - dq), 0) for dp, dq in _INCREMENTS)
        expected, p, q = [], sa, sb
        while (p, q) != (1, 1):
            expected.append((p, q))
            p, q = next((p - dp, q - dq) for dp, dq in _INCREMENTS if paths.get((p - dp, q - dq)))
        expected.append((1, 1))
        alignment = align_traces(trace_a, ORDER_A, trace_b, ORDER_B)
        assert alignment == Alignment(tuple(reversed(expected)), paths[sa, sb])

    def test_empty_word(self):
        alph = Alphabet(1, 1)
        A, B = all_shuffles(alph)
        empty_a = insert_word(Word(), A, REGULAR_REGULAR).trace
        empty_b = insert_word(Word(), B, REGULAR_REGULAR).trace
        alignment = align_traces(empty_a, A, empty_b, B)
        assert alignment.pairs == ()


def align_pair_ok(a, b):
    from superrsk import adjacent_transposition

    return adjacent_transposition(a, b) is not None


class TestSingleCasePredicates:
    def test_path_monotonicity_on_worked_example(self):
        result = insert_word(WORD7, ORDER_A, REGULAR_REGULAR)
        assert check_path_monotonicity(result)

    def test_cell_monotonicity_on_worked_example(self):
        result = insert_word(WORD7, ORDER_A, REGULAR_REGULAR)
        assert check_cell_monotonicity(result, ORDER_A)

    def test_restriction_subtableau_cases(self, a22, order_ttuu):
        word = parse_word("u2,t1,t2,u1", a22)
        assert check_restriction_subtableau(word, order_ttuu, t(2))
        assert check_restriction_subtableau(word, order_ttuu, u(2))  # maximum letter

    def test_region1_agreement_cases(self):
        assert check_region1_agreement(WORD7, ORDER_A, ORDER_B)
        pair_only = parse_word("t2,u2,t2", ALPH32)
        assert check_region1_agreement(pair_only, ORDER_A, ORDER_B)

    def test_region1_agreement_requires_adjacent(self, a22, order_ttuu, order_uutt):
        with pytest.raises(ValueError):
            check_region1_agreement(parse_word("t1", a22), order_ttuu, order_uutt)

    def test_dual_regular_agreement_cases(self, a22, order_ttuu):
        assert check_dual_regular_agreement(parse_word("u2,t1,t2,u1", a22), order_ttuu)
        assert check_dual_regular_agreement(parse_word("t1,t1", a22), order_ttuu)
        with pytest.raises(ValueError):
            check_dual_regular_agreement(parse_word("u1,u1", a22), order_ttuu)


class TestReports:
    def test_shape_invariance_small(self, a22):
        report = check_shape_invariance(a22, 4)
        assert report.passed
        assert report.cases_run == 256 * 15
        assert report.parameters["variant"] == "reg-reg"

    def test_shape_invariance_trivial_length_one(self, a22):
        report = check_shape_invariance(a22, 1)
        assert report.passed and report.cases_run == 4 * 15

    def test_variant_reports_match_for_regular_rules(self, a22):
        base = check_shape_invariance(a22, 3, REGULAR_REGULAR)
        again = check_shape_invariance(a22, 3, REGULAR_REGULAR)
        assert base.cases_run == again.cases_run
        assert base.failures == again.failures == ()

    def test_variant_shapes_agree_on_dual_example(self):
        alph = Alphabet(2, 1)
        word = parse_word("u1,t1,t2,u1", alph)
        shapes = {
            insert_word(word, s, REGULAR_DUAL).p.shape for s in all_shuffles(alph)
        }
        assert len(shapes) == 1

    def test_report_json_layout(self, a22):
        report = check_shape_invariance(a22, 2)
        payload = report.to_json_dict()
        assert set(payload) == {"check", "params", "cases", "failures", "stats", "elapsed_ms"}
        assert payload["check"] == "shape-invariance"
        assert payload["failures"] == []
        json.dumps(payload)  # serializable

    def test_sampling_is_reproducible(self, a22):
        first = check_shape_invariance(a22, 6, REGULAR_REGULAR, Sample(25, 7))
        second = check_shape_invariance(a22, 6, REGULAR_REGULAR, Sample(25, 7))
        a_json = first.to_json_dict()
        b_json = second.to_json_dict()
        a_json.pop("elapsed_ms")
        b_json.pop("elapsed_ms")
        assert a_json == b_json
        assert first.parameters["mode"] == "sample"
        assert first.cases_run == 25 * 15

    def test_trace_alignment_grid_records_witnesses(self, a22):
        report = check_trace_alignment_grid(a22, 2)
        assert report.passed
        assert "witness_counts" in report.stats

    def test_round_trip_grid(self, a22):
        report = check_round_trip_grid(a22, 2, DUAL_DUAL)
        assert report.passed and report.cases_run == 16 * 6

    def test_zero_cases_do_not_pass(self):
        report = check_shape_invariance(Alphabet(2, 0), 3)
        assert report.cases_run == 0 and report.failures == ()
        assert not report.passed

    def test_runs_count_their_passes(self, a22):
        import superrsk.verify as verify

        failure = CaseFailure("t1", "t1<t2<u1<u2", "reg-reg", "a pass", "a failure")
        finding = CaseFailure("", "t1<t2<u1<u2", "reg-reg", "injective map", "a finding")
        report = verify._report("runs", a22, 1, lambda: (8, [failure, finding]))
        # the count is the run's own: a grid finding is a failure but no case
        assert report.cases_run == 8
        assert report.failures == (failure, finding) and not report.passed
        assert verify._report("runs", a22, 1, lambda: (5, [])).passed

    def test_a_grid_of_empty_runs_has_no_cases(self, a22):
        import superrsk.verify as verify

        report = verify._report("runs", a22, 1, lambda: (0, []))
        assert report.cases_run == 0 and report.failures == () and not report.passed

    @pytest.mark.parametrize("n", [-1, True], ids=repr)
    def test_an_invalid_length_is_refused_before_the_run(self, a22, n):
        import superrsk.verify as verify

        def run():
            raise AssertionError("a case ran")

        with pytest.raises(ValueError, match="^n must be"):
            verify._report("runs", a22, n, run)

    @pytest.mark.parametrize(
        "count,seed", [(1.5, 0), (3, 0.0), (True, 0), (3, False), ("3", 0), (3, None)]
    )
    def test_sample_count_and_seed_must_be_integers(self, count, seed):
        with pytest.raises(ValueError, match="^sample count and seed must be integers"):
            Sample(count, seed)

    def test_negative_length_rejected(self, a22):
        with pytest.raises(ValueError, match="n must be non-negative"):
            check_shape_invariance(a22, -1, REGULAR_REGULAR, Sample(3, 0))
        with pytest.raises(ValueError, match="n must be non-negative"):
            check_hook_schur_invariance(a22, -1)

    @pytest.mark.parametrize("n", [True, 2.0], ids=repr)
    def test_non_integer_length_rejected_by_every_claim(self, n):
        # a bool would otherwise run as n=1 and be reported as "n": true
        from superrsk.cli import _CLAIMS

        for token in _CLAIMS:
            with pytest.raises(ValueError, match=rf"^n must be an integer, got {n!r}$"):
                run_token(token, Alphabet(1, 1), n)

    def test_other_grids_small(self, a22):
        assert check_path_monotonicity_grid(a22, 3).passed
        assert check_cell_monotonicity_grid(a22, 3).passed
        assert check_restriction_subtableau_grid(a22, 2).passed
        assert check_region1_agreement_grid(a22, 3).passed
        assert check_dual_regular_agreement_grid(a22, 3).passed
        assert check_hook_schur_invariance(a22, 3).passed
        assert check_counting_identity(a22, 3).passed

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
    def test_hook_schur_invariance_under_every_variant(self, a22, variant, monkeypatch):
        # the shapes of 4 cells x the shuffles after the first
        report = check_hook_schur_invariance(a22, 4, variant)
        assert report.passed and report.cases_run == 5 * 5
        assert report.parameters == {"k": 2, "l": 2, "n": 4, "variant": variant.name}
        import superrsk.verify as verify

        walk = verify.hook_schur
        seen = []

        def skewed(shape, alphabet, shuffle, v):
            seen.append(v)
            poly = walk(shape, alphabet, shuffle, v)
            return poly + poly if shuffle.order[0].kind == "u" else poly

        monkeypatch.setattr(verify, "hook_schur", skewed)
        report = check_hook_schur_invariance(a22, 2, variant)
        assert set(seen) == {variant}
        # of the shuffles after t1<t2<u1<u2, three start with a u
        assert len(report.failures) == 2 * 3
        assert {failure.variant for failure in report.failures} == {variant.name}


class TestWeightPreservingBijection:
    def test_grid_reports_distinct_maps(self, a22):
        report = check_weight_preserving_bijection_grid(a22, 2)
        assert report.passed
        assert "distinct_maps_by_shape" in report.stats

    @pytest.mark.parametrize(
        "k,l,n",
        [(2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 1, 4), (1, 3, 3), (2, 1, 0), (1, 3, 0)],
    )
    def test_healthy_grid_matches_per_case_reference(self, k, l, n):
        alphabet = Alphabet(k, l)
        report = check_weight_preserving_bijection_grid(alphabet, n)
        cases, failures, distinct = theorem3_reference(alphabet, n)
        assert (report.cases_run, list(report.failures)) == (cases, failures) == (cases, [])
        assert report.stats["distinct_maps_by_shape"] == distinct
        assert cases == claim_cases("theorem3", k, l, n)

    def test_one_shuffle_walks_nothing(self, capsys, monkeypatch):
        import superrsk.insertion as insertion
        from superrsk.cli import main

        inserts = count_calls(monkeypatch, insertion, "_insert_rank")
        code = main(["--k", "0", "--l", "2", "--format", "json",
                     "verify", "--theorem", "theorem3", "--n", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1 and payload["cases"] == 0 and payload["failures"] == []
        assert inserts["_insert_rank"] == 0

    def test_grid_reverses_once_per_source(self, a22, monkeypatch):
        import superrsk.insertion as insertion
        import superrsk.verify as verify

        calls = count_calls(
            monkeypatch, verify, "_fill_ranks", "_reverse_ranks", "_rank_grid", "_valid_ranks",
            "_check_recording", "_walk",
        )
        inserts = count_calls(monkeypatch, insertion, "_insert_rank")
        monkeypatch.setattr(insertion, "insert_word", refuse_insert_word)
        built = []
        check = Tableau.__post_init__
        monkeypatch.setattr(Tableau, "__post_init__", lambda p: built.append(p) or check(p))
        report = check_weight_preserving_bijection_grid(a22, 3)
        assert report.passed
        assert built == []  # fillings stay rank rows from the fill to the reversal
        shuffles = all_shuffles(a22)
        shapes = [(3,), (2, 1), (1, 1, 1)]
        # each shape filled once per shuffle, each recorder checked once per shape
        assert calls["_fill_ranks"] == 3 * len(shuffles)
        assert calls["_check_recording"] == sum(len(enumerate_syt(shape)) for shape in shapes)
        # each filling checked once per source, each (source, recorder, filling) reversed once
        fillings = sum(
            len(enumerate_ssyt(shape, a22, s, REGULAR_REGULAR)) for shape in shapes for s in shuffles
        )
        assert calls["_rank_grid"] == fillings
        assert calls["_reverse_ranks"] == report.cases_run // (len(shuffles) - 1) == 4**3 * 6
        # each distinct P of the walk is checked once per target; the Ps of the
        # words of 3 letters under a shuffle are its fillings of the shapes of 3
        assert calls["_valid_ranks"] == fillings
        # one walk of the word trie inserts once per node under each shuffle,
        # C(4, 2) (4 + 16 + 64) letter insertions, and no word is inserted alone
        assert inserts["_insert_rank"] == comb(4, 2) * (4 + 4**2 + 4**3) == 504
        assert calls["_walk"] == 1


def snapshot_alignment(trace_a, a, trace_b, b):
    """Reference alignment: the same search over replayed Step snapshots, with
    states compared by ``_sim``, the body of ``states_equivalent``."""
    pair = adjacent_transposition(a, b)
    states_a, states_b = _states(trace_a), _states(trace_b)
    sa, sb = len(states_a), len(states_b)
    if sa == 0 and sb == 0:
        return Alignment((), 1)
    if sa == 0 or sb == 0:
        raise AlignmentError("traces have different emptiness")

    def ok(p, q):
        return _sim(states_a[p - 1], states_b[q - 1], a, b, pair)

    if not ok(1, 1):
        raise AlignmentError("initial states are not equivalent")
    parent = {(1, 1): None}
    queue = deque([(1, 1)])
    while queue:
        p, q = queue.popleft()
        for dp, dq in _INCREMENTS:
            node = (p + dp, q + dq)
            if node[0] <= sa and node[1] <= sb and node not in parent and ok(*node):
                parent[node] = (p, q)
                queue.append(node)
    if (sa, sb) not in parent:
        raise AlignmentError(f"no alignment reaches ({sa}, {sb})")
    path, node = [], (sa, sb)
    while node is not None:
        path.append(node)
        node = parent[node]
    counts = {(1, 1): 1}
    for node in sorted(parent, key=lambda pq: (pq[0] + pq[1], pq[0])):
        if node != (1, 1):
            counts[node] = sum(counts.get((node[0] - dp, node[1] - dq), 0) for dp, dq in _INCREMENTS)
    return Alignment(tuple(reversed(path)), counts[(sa, sb)])


def alignment_outcome(align, *args):
    try:
        return align(*args)
    except AlignmentError as exc:
        return str(exc)


class TestLogAlignmentAgainstSnapshots:
    @pytest.mark.parametrize("k,l,n_max", [(2, 2, 4), (2, 1, 5), (1, 2, 5)])
    def test_every_adjacent_pair_word_and_variant(self, k, l, n_max):
        alph = Alphabet(k, l)
        shuffles = all_shuffles(alph)
        pairs = [(a, b) for a, b in combinations(shuffles, 2) if adjacent_transposition(a, b)]
        failures = 0
        for n in range(n_max + 1):
            for word in all_words(alph, n):
                for variant in VARIANTS:
                    traces = {s: insert_word(word, s, variant).trace for s in shuffles}
                    for a, b in pairs:
                        args = (traces[a], a, traces[b], b)
                        expected = alignment_outcome(snapshot_alignment, *args)
                        assert alignment_outcome(align_traces, *args) == expected
                        failures += isinstance(expected, str)
        # the dual variants give some unalignable words, so both outcomes are compared
        assert failures > 0

    def test_region2_t_count_alone_breaks_alignment(self):
        # one-cell states: same masked grid, same (terminal) action, but the
        # pair-region component holds one t2 on one side and none on the other
        rank_a, rank_b = ORDER_A.ranks, ORDER_B.ranks
        holding_t2 = InsertionTrace((1,), ((1, 1, rank_a[t(2)], None),), ORDER_A.order)
        holding_u2 = InsertionTrace((1,), ((1, 1, rank_b[u(2)], None),), ORDER_B.order)
        also_t2 = InsertionTrace((1,), ((1, 1, rank_b[t(2)], None),), ORDER_B.order)
        assert align_traces(holding_t2, ORDER_A, also_t2, ORDER_B) == Alignment(((1, 1),), 1)
        for align in (align_traces, snapshot_alignment):
            with pytest.raises(AlignmentError, match="initial states are not equivalent"):
                align(holding_t2, ORDER_A, holding_u2, ORDER_B)


def snapshot_paths(result):
    """Reference path monotonicity over replayed Step snapshots."""
    steps = result.trace.steps
    for step, nxt in zip(steps, steps[1:]):
        if step.bumped is None:
            continue
        (r, c), (nr, nc) = step.settled_cell, nxt.settled_cell
        if step.bumped.element.kind == "t":
            if nr != r + 1 or nc > c:
                return False
        elif nc != c + 1 or nr > r:
            return False
    return True


def snapshot_cells(result, shuffle):
    """Reference cell monotonicity over replayed Step snapshots."""
    steps = result.trace.steps
    for prev, cur in zip(steps, steps[1:]):
        for cell, old in prev.state.items():
            new = cur.state.entry(*cell)
            if new is None or shuffle.less(old, new):
                return False
    return True


class TestMonotonicityFromLog:
    def test_matches_snapshots_on_every_case(self, a22):
        shuffles = all_shuffles(a22)
        for n in range(5):
            for word in all_words(a22, n):
                for s in shuffles:
                    for variant in VARIANTS:
                        result = insert_word(word, s, variant)
                        paths = check_path_monotonicity(result)
                        cells = check_cell_monotonicity(result, s)
                        assert "steps" not in vars(result.trace)
                        assert paths == snapshot_paths(result)
                        assert cells == snapshot_cells(result, s)

    def test_hand_built_violations(self):
        alph = Alphabet(1, 1)
        order = parse_shuffle("t1<u1", alph)  # ranks: t1 = 0, u1 = 1
        result = insert_word(parse_word("u1,t1", alph), order, REGULAR_REGULAR)
        assert result.trace.log == ((1, 1, 1, None), (1, 1, 0, 1), (1, 2, 1, None))

        def with_log(log):
            trace = InsertionTrace((1, len(log) - 1), log, order.order)
            return InsertionResult(result.p, result.q, trace)

        # the bumped u1 re-enters column 1 instead of column 2
        drifted = with_log(((1, 1, 1, None), (1, 1, 0, 1), (2, 1, 1, None)))
        assert not check_path_monotonicity(drifted) and not snapshot_paths(drifted)
        assert check_cell_monotonicity(drifted, order) and snapshot_cells(drifted, order)
        # the bumped u1 moves right but also down
        sunk = with_log(((1, 1, 1, None), (1, 1, 0, 1), (2, 2, 1, None)))
        assert not check_path_monotonicity(sunk) and not snapshot_paths(sunk)
        # u1 overwrites the smaller t1, which moves down correctly
        grown = with_log(((1, 1, 0, None), (1, 1, 1, 0), (2, 1, 0, None)))
        assert not check_cell_monotonicity(grown, order)
        assert not snapshot_cells(grown, order)
        assert check_path_monotonicity(grown) and snapshot_paths(grown)
        # the bumped t1 moves down but also right
        slid = with_log(((1, 1, 0, None), (1, 1, 1, 0), (2, 2, 0, None)))
        assert not check_path_monotonicity(slid) and not snapshot_paths(slid)


class TestRestrictionGridInsertions:
    def test_restricted_lanes_follow_the_trie(self, a22, monkeypatch):
        import superrsk.insertion as insertion

        calls = count_calls(monkeypatch, insertion, "_insert_rank")
        monkeypatch.setattr(insertion, "insert_word", refuse_insert_word)
        report = check_restriction_subtableau_grid(a22, 4)
        assert report.passed and report.cases_run == 256 * 6 * 4
        # per shuffle, the lane of the letter of rank r inserts at the trie
        # nodes whose last letter has rank <= r: (r + 1) 4^(m-1) nodes at depth m
        per_shuffle = sum((r + 1) * 4 ** (m - 1) for r in range(4) for m in range(1, 5))
        assert calls["_insert_rank"] == 6 * per_shuffle == 5100


def count_calls(monkeypatch, module, *names):
    """Wrap each named function of ``module`` with a call counter."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def refuse_insert_word(*args):
    raise AssertionError("a word grid called insert_word")


def trie_nodes(letters, n):
    """Nodes of the word trie below the root: the words of length 1..n."""
    return sum(letters**m for m in range(1, n + 1))


# the word grids that run on the shared-prefix walk, by claim token
WALK_TOKENS = ("2", "5", "lemma2.6", "lemma2.15", "lemma3.2", "paths", "cells", "region1",
               "round-trip")


def run_token(token, alphabet, n, variant=REGULAR_REGULAR, mode="exhaustive"):
    """The token's report, dispatched as the CLI does: its checker gets the
    options its row honours, by keyword."""
    import superrsk.cli as cli
    import superrsk.verify as verify

    honours, checker = cli._CLAIMS[token]
    options = {"mode": mode, "variant": variant}
    return getattr(verify, checker)(alphabet, n, **{o: options[o] for o in honours})


# (k, l) with both sides, one side of a single letter, and one side empty
CASE_ALPHABETS = ((2, 2), (2, 1), (1, 2), (3, 2), (3, 1), (1, 1), (2, 0), (0, 2))
# the tokens whose counts the benchmark's verify workload checks
BENCHMARKED_TOKENS = ("2", "5", "lemma2.6", "lemma2.15", "lemma3.2", "theorem3")


def benchmark_closed_form(monkeypatch):
    """``closed_form_cases`` of perfbench/workloads.py, loaded by file path
    (its dataclasses look their module up in ``sys.modules`` while built)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.closed_form_cases


class TestClaimCases:
    def test_every_exhaustive_report_counts_its_closed_form(self, monkeypatch):
        from superrsk.cli import _CLAIMS

        closed_form = benchmark_closed_form(monkeypatch)
        checked = 0
        for token in _CLAIMS:
            for k, l in CASE_ALPHABETS:
                for n in range(4):
                    expected = claim_cases(token, k, l, n)
                    assert run_token(token, Alphabet(k, l), n).cases_run == expected, (
                        token, k, l, n)
                    # its comb(k + l - 1, k - 1) is undefined at k = 0
                    if token in BENCHMARKED_TOKENS and (k or token != "lemma2.15"):
                        assert closed_form(token, k, l, n) == expected, (token, k, l, n)
                        checked += 1
        assert checked == (len(BENCHMARKED_TOKENS) * len(CASE_ALPHABETS) - 1) * 4


class TestWalkInsertions:
    @pytest.mark.parametrize(
        "token,variant",
        [("2", REGULAR_REGULAR)]
        + [(token, v) for token in ("5", "paths", "cells", "round-trip") for v in VARIANTS],
        ids=lambda x: getattr(x, "name", x),
    )
    def test_one_insertion_per_trie_node(self, monkeypatch, token, variant):
        import superrsk.insertion as insertion

        calls = count_calls(monkeypatch, insertion, "_insert_rank")
        monkeypatch.setattr(insertion, "insert_word", refuse_insert_word)
        for (k, l), n in (((2, 2), 4), ((2, 1), 5)):
            calls["_insert_rank"] = 0
            report = run_token(token, Alphabet(k, l), n, variant)
            assert report.passed
            assert calls["_insert_rank"] == comb(k + l, k) * trie_nodes(k + l, n)

    def test_one_take_back_per_lane_per_word_that_drops_letters(self, a22, monkeypatch):
        import superrsk.insertion as insertion

        class Counted(list):
            """A list that counts its slice deletions and its pops."""

            def __delitem__(self, key):
                self.deletions += 1
                super().__delitem__(key)

            def pop(self, *args):
                self.pops += 1
                return super().pop(*args)

        lanes = []
        init = insertion._Lane.__init__

        def counted(lane, *args, **kwargs):
            init(lane, *args, **kwargs)
            lane.log, lane.marks = Counted(), Counted()
            for held in (lane.log, lane.marks):
                held.deletions = held.pops = 0
            lanes.append(lane)

        monkeypatch.setattr(insertion._Lane, "__init__", counted)
        assert run_token("2", a22, 4).passed
        monkeypatch.undo()
        # every word after the first drops held letters, and each of the six
        # lanes takes them back in one deletion of their marks
        assert len(lanes) == 6
        assert sum(lane.marks.deletions for lane in lanes) == 6 * (4**4 - 1) == 1530
        # each placement the walk logged is popped once, when its letter is
        # dropped, except those of the last word, which the lane still holds
        letters = a22.letters()
        for lane in lanes:
            logged = sum(
                insert_word(Word(tuple(letters[i] for i in word)), lane.shuffle, REGULAR_REGULAR)
                .trace.path_lengths[-1]
                for m in range(1, 5)
                for word in product(range(4), repeat=m)
            )
            assert lane.log.pops == logged - len(lane.log) > 0

    def test_repeated_u_prefixes_are_pruned(self, a22, monkeypatch):
        import superrsk.insertion as insertion

        calls = count_calls(monkeypatch, insertion, "_insert_rank")
        report = check_dual_regular_agreement_grid(a22, 5)
        assert report.passed and report.cases_run == 352 * 6

        def distinct_u_words(m):  # words of length m whose u's are pairwise distinct
            return sum(comb(m, j) * perm(2, j) * 2 ** (m - j) for j in range(min(2, m) + 1))

        # two lanes (reg-reg, reg-dual) per shuffle, one insertion per kept trie node
        assert calls["_insert_rank"] == 6 * 2 * sum(distinct_u_words(m) for m in range(1, 6))

    @pytest.mark.parametrize("token", [*WALK_TOKENS, "mimicry", "theorem3", "converse"])
    def test_no_word_grid_calls_insert_word(self, a22, monkeypatch, token):
        import superrsk.insertion as insertion
        import superrsk.verify as verify

        assert not hasattr(verify, "insert_word")  # no grid can call it by name
        monkeypatch.setattr(insertion, "insert_word", refuse_insert_word)
        assert run_token(token, a22, 3).passed
        if token not in ("theorem3", "converse"):
            assert run_token(token, a22, 4, mode=Sample(5, 1)).passed

    def test_sampled_walk_matches_separate_insertions(self, a22):
        # sampled words share few prefixes; each must still see its own insertion
        import superrsk.verify as verify

        words = [(0, 1, 2), (0, 1, 3), (0, 1, 3), (3,), (), (2, 2, 2, 1)]
        lanes = verify._lanes(a22, REGULAR_DUAL)
        letters = a22.letters()
        for word in verify._walk(iter(words), lanes):
            for lane in lanes:
                v = Word(tuple(letters[i] for i in word))
                result = insert_word(v, lane.shuffle, REGULAR_DUAL)
                ranks = lane.shuffle.ranks
                assert lane.rows == [[ranks[x] for x in row] for row in result.p.rows]
                assert lane.qrows == [list(row) for row in result.q.rows]
                assert tuple(lane.log) == result.trace.log


# words with a repeat, the empty word, a shorter word and then a longer one
WALK_WORDS = [(0, 1, 2), (0, 1, 3), (0, 1, 3), (3,), (), (2, 2, 2, 1)]


def recorded_alignments(alphabet, n, mode, words=None):
    """Each (word, adjacent pair) outcome the lemma2.15 grid counts off its
    signature streams, in order: the witness count, or the AlignmentError's
    message.  ``words`` replaces the grid's word list."""
    import superrsk.verify as verify

    seen = []
    original = verify._stream_count

    def recording(a, b):
        seen.append(alignment_outcome(original, a, b))
        return original(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_stream_count", recording)
        if words is not None:
            patch.setattr(verify, "_words", lambda *args: iter(words))
        report = check_trace_alignment_grid(alphabet, n, mode)
    return report, seen


def adjacent_pairs(alphabet):
    """The adjacent shuffle pairs (a, b), a first in ``all_shuffles``."""
    shuffles = all_shuffles(alphabet)
    return [(a, b) for a, b in combinations(shuffles, 2) if adjacent_transposition(a, b)]


def reference_alignments(alphabet, words):
    """``align_traces`` on separate ``insert_word`` traces, per word and
    adjacent pair: the witness count, or the AlignmentError's message."""
    shuffles = all_shuffles(alphabet)
    pairs = adjacent_pairs(alphabet)
    letters = alphabet.letters()
    out = []
    for word in words:
        v = Word(tuple(letters[i] for i in word))
        traces = {s: insert_word(v, s, REGULAR_REGULAR).trace for s in shuffles}
        for a, b in pairs:
            outcome = alignment_outcome(align_traces, traces[a], a, traces[b], b)
            out.append(outcome if isinstance(outcome, str) else outcome.witness_count)
    return out


def recorded_tables(run, words=None):
    """Each table ``_witnesses`` builds while ``run()`` runs, in order, with
    ``words`` as the grid's word list if given.  Where the grid counts a
    stream pair without a table, its entry is None."""
    import superrsk.verify as verify

    tables, witnesses, count = [], verify._witnesses, verify._stream_count

    def built(a, b):
        if tables and tables[-1] is None:  # the table of the count just begun
            tables[-1] = witnesses(a, b)
        else:
            tables.append(witnesses(a, b))
        return tables[-1]

    def counted(a, b):
        tables.append(None)
        return count(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_witnesses", built)
        patch.setattr(verify, "_stream_count", counted)
        if words is not None:
            patch.setattr(verify, "_words", lambda *args: iter(words))
        run()
    return tables


class TestSignatureStreams:
    @pytest.mark.parametrize("k,l", [(2, 2), (3, 2)])
    @pytest.mark.parametrize("mode", ["exhaustive", Sample(7, 5)], ids=["exhaustive", "sampled"])
    def test_grid_alignments_match_separate_traces(self, k, l, mode):
        alphabet = Alphabet(k, l)
        for n in range(4):
            report, seen = recorded_alignments(alphabet, n, mode)
            words = [
                tuple(alphabet.letters().index(x) for x in word)
                for word in reference_words(alphabet, n, mode)
            ]
            assert seen == reference_alignments(alphabet, words)
            assert report.passed and report.cases_run == len(seen)

    def test_shared_prefixes_repeats_and_the_empty_word(self, a22):
        _, seen = recorded_alignments(a22, 3, "exhaustive", WALK_WORDS)
        assert seen == reference_alignments(a22, WALK_WORDS)
        assert len(seen) == len(WALK_WORDS) * 6

    def test_unalignable_pairs_match_under_a_fault(self, a22, monkeypatch):
        install_fault(monkeypatch, a22)
        words = [*WALK_WORDS, *(tuple(w) for w in product(range(4), repeat=4))]
        _, seen = recorded_alignments(a22, 4, "exhaustive", words)
        assert seen == reference_alignments(a22, words)
        assert any(isinstance(outcome, str) for outcome in seen)

    @pytest.mark.parametrize("k,l", [(2, 2), (3, 2)])
    def test_streams_equal_signatures_built_afresh(self, k, l, monkeypatch):
        # a stream that follows the walk holds what a new stream builds from the log
        import superrsk.verify as verify

        alphabet = Alphabet(k, l)
        words = [*WALK_WORDS, *product(range(k + l), repeat=3), (1,), (1, 0)]
        init, follow = verify._Stream.__init__, verify._Stream.follow
        made, followed = {}, []

        def recording(self, shuffle, pairs, states):
            init(self, shuffle, pairs, states)
            made[self] = (shuffle, list(self.sigs), states)

        def checked(self, log, kept):
            follow(self, log, kept)
            fresh = verify._Stream(*made[self])
            follow(fresh, log, 0)
            assert (self.pending, self.ids, self.sigs) == (fresh.pending, fresh.ids, fresh.sigs)
            followed.append((kept, len(log)))

        monkeypatch.setattr(verify._Stream, "__init__", recording)
        monkeypatch.setattr(verify._Stream, "follow", checked)
        monkeypatch.setattr(verify, "_words", lambda *args: iter(words))
        assert check_trace_alignment_grid(alphabet, 3).passed
        assert len(followed) == len(words) * len(all_shuffles(alphabet))
        # some words keep part of the log, and the repeated word all of it
        assert any(0 < kept < size for kept, size in followed)
        assert any(0 < kept == size for kept, size in followed)

    @pytest.mark.parametrize("k,l", [(2, 2), (3, 2)])
    def test_witness_tables_of_walked_streams_equal_those_of_separate_traces(self, k, l):
        # a grid case counts on the table that align_traces counts on, and
        # every step pair of these words is reached by one alignment or none
        alphabet = Alphabet(k, l)
        words = [*WALK_WORDS, *product(range(k + l), repeat=3)]
        walked = recorded_tables(lambda: check_trace_alignment_grid(alphabet, 3), words)
        separate = recorded_tables(lambda: reference_alignments(alphabet, words))
        assert len(walked) == len(separate) == len(words) * len(adjacent_pairs(alphabet))
        for table, reference in zip(walked, separate):
            if table is None:  # counted without a table: the diagonal is the one witness
                assert reference == [{p: 1} for p in range(len(reference))]
            else:
                assert table == reference
        assert None in walked and any(table is not None for table in walked)
        assert all(count == 1 for table in separate for row in table for count in row.values())

    @pytest.mark.parametrize("fault", [False, True], ids=["sound", "faulty"])
    @pytest.mark.parametrize(
        "k,l,n_max,order", [(2, 2, 4, "t1<u1<t2<u2"), (3, 2, 3, "t1<u1<t2<u2<t3")],
        ids=["A22", "A32"],
    )
    def test_a_count_without_a_table_equals_the_count_off_the_table(
        self, k, l, n_max, order, fault, monkeypatch
    ):
        import superrsk.verify as verify

        alphabet = Alphabet(k, l)
        if fault:
            install_fault(monkeypatch, alphabet, order)
        count, witnesses = verify._stream_count, verify._witnesses
        built = [0]
        paths = {"untabled": 0, "tabled": 0}

        def counting(a, b):
            before = built[0]
            outcome = alignment_outcome(count, a, b)
            table = witnesses(a, b)
            assert outcome == alignment_outcome(verify._witness_count, table, len(a), len(b))
            paths["untabled" if built[0] == before else "tabled"] += 1
            return count(a, b)

        def building(a, b):
            built[0] += 1
            return witnesses(a, b)

        monkeypatch.setattr(verify, "_stream_count", counting)
        monkeypatch.setattr(verify, "_witnesses", building)
        failed = False
        for n in range(n_max + 1):
            report = check_trace_alignment_grid(alphabet, n)
            assert report.cases_run == alphabet.size**n * len(adjacent_pairs(alphabet))
            failed |= bool(report.failures)
        assert failed == fault
        assert paths["untabled"] > 0 and paths["tabled"] > 0

    @pytest.mark.parametrize("fault", [False, True], ids=["sound", "faulty"])
    @pytest.mark.parametrize(
        "k,l,n,mode,order",
        [
            (1, 1, 2, Sample(50, 0), "t1<u1"),
            (1, 1, 4, Sample(50, 0), "t1<u1"),
            (2, 2, 4, "exhaustive", "t1<u1<t2<u2"),
            (3, 2, 3, "exhaustive", "t1<u1<t2<u2<t3"),
        ],
        ids=["A11-n2-sampled", "A11-n4-sampled", "A22-n4", "A32-n3"],
    )
    def test_grid_report_equals_align_traces_word_by_word(
        self, k, l, n, mode, order, fault, monkeypatch
    ):
        # the kept step count stands in for comparing logs: the report must be
        # what align_traces gives on each word's separate traces, also when a
        # sample repeats a word back to back and the whole log is kept
        alphabet = Alphabet(k, l)
        if fault:
            install_fault(monkeypatch, alphabet, order)
        words = reference_words(alphabet, n, mode)
        if mode != "exhaustive":
            assert any(a == b for a, b in zip(words, words[1:]))
        report = check_trace_alignment_grid(alphabet, n, mode)
        counts, failures = {}, []
        for word in words:
            traces = {s: insert_word(word, s, REGULAR_REGULAR).trace for s in all_shuffles(alphabet)}
            for a, b in adjacent_pairs(alphabet):
                outcome = alignment_outcome(align_traces, traces[a], a, traces[b], b)
                if isinstance(outcome, str):
                    failures.append(CaseFailure(
                        str(word), f"{a} | {b}", REGULAR_REGULAR.name,
                        "an alignment with equivalent matched states", outcome,
                    ))
                else:
                    counts[outcome.witness_count] = counts.get(outcome.witness_count, 0) + 1
        assert report.cases_run == len(words) * len(adjacent_pairs(alphabet))
        assert report.stats["witness_counts"] == {str(c): v for c, v in sorted(counts.items())}
        assert report.failures == tuple(failures)
        assert bool(failures) == (fault and n > 2)

    def test_witness_tables_count_every_alignment_of_synthetic_streams(self):
        # streams over two signatures match often, so many counts exceed 1,
        # and short streams often leave one or both empty
        import superrsk.verify as verify

        def brute(a, b):
            counts = {}
            for p, q in product(range(len(a)), range(len(b))):
                if a[p] == b[q]:
                    w = 1 if (p, q) == (0, 0) else sum(
                        counts.get((p - dp, q - dq), 0) for dp, dq in _INCREMENTS
                    )
                    if w:
                        counts[p, q] = w
            return counts

        rng = random.Random(11)
        most = emptied = self_counts = 0
        for _ in range(800):
            a = [rng.randrange(2) for _ in range(rng.randrange(12))]
            b = [rng.randrange(2) for _ in range(rng.randrange(12))]
            table = verify._witnesses(a, b)
            assert len(table) == len(a)
            reached = {(p, q): w for p, row in enumerate(table) for q, w in row.items()}
            assert reached == brute(a, b)
            for p, q in reached:
                # the path read-back steps from each reached pair to a reached predecessor
                assert (p, q) == (0, 0) or any(
                    (p - dp, q - dq) in reached for dp, dq in _INCREMENTS
                )
            expected = reached.get((len(a) - 1, len(b) - 1), 0) if a and b else int(a == b)
            outcome = alignment_outcome(verify._witness_count, table, len(a), len(b))
            assert outcome == expected or (isinstance(outcome, str) and not expected)
            emptied += not (a and b)
            most = max(most, *reached.values(), 0)
            # the grid's count step, which skips the table for some equal streams
            for x, y in ((a, b), (a, a)):
                counted = alignment_outcome(verify._stream_count, x, y)
                assert counted == alignment_outcome(
                    verify._witness_count, verify._witnesses(x, y), len(x), len(y)
                )
                self_counts += x is y and counted != 1
        assert most > 4 and emptied > 5 and self_counts > 100

    def test_a_settle_revised_by_the_next_letter_is_signed_again(self, a22, monkeypatch):
        import superrsk.verify as verify

        lanes = verify._lanes(a22, REGULAR_REGULAR)
        lane, pairs = lanes[0], [pair for i, _, pair in verify._adjacent_pairs(lanes) if i == 0]
        stream = verify._Stream(lane.shuffle, pairs, verify._States())
        cls = stream.states.cls
        first, second = lane.letter[0], lane.letter[2]
        walk = verify._walk(iter([(first,), (first, second)]), [lane])
        next(walk)  # t1 settles in (1, 1) with nothing pending
        stream.follow(lane.log, 0)
        assert stream.pending == [None] and len(pairs) == 1
        first = {pair: sigs[:] for pair, sigs in stream.sigs.items()}
        assert first == {pair: [(cls[ids[0]], None)] for pair, ids in stream.ids.items()}
        stream.follow(lane.log, 1)  # nothing changed, so nothing is signed
        assert all(stream.sigs[pair][0] is first[pair][0] for pair in pairs)
        assert stream.sigs == first
        next(walk)  # the settle's pending action becomes u1's entry
        stream.follow(lane.log, 1)
        assert stream.pending == [(2, 1), None]
        # the kept settle is signed again and the new step signed, per pair
        for pair in pairs:
            ids, sigs = stream.ids[pair], stream.sigs[pair]
            assert sigs == [(cls[ids[0]], (2, 1)), (cls[ids[1]], None)]
            assert sigs[0] is not first[pair][0]

    def test_each_step_signature_is_built_once_per_trie_node(self, a22, monkeypatch):
        import superrsk.verify as verify

        class CountedEdges(dict):
            gets = 0

            def get(self, key):
                CountedEdges.gets += 1
                return dict.get(self, key)

        states = verify._States()
        states.edges = CountedEdges()
        monkeypatch.setattr(verify, "_step_states", lambda alphabet: states)
        calls = count_calls(monkeypatch, verify._States, "after")
        assert check_trace_alignment_grid(a22, 4).passed
        # each prefix's last letter is placed once per stream: one transition
        # per step of that letter, summed over the trie nodes and both lanes
        # of each pair
        shuffles = all_shuffles(a22)
        pairs = [(a, b) for a, b in combinations(shuffles, 2) if adjacent_transposition(a, b)]
        new_steps = sum(
            insert_word(word, s, REGULAR_REGULAR).trace.path_lengths[-1]
            for m in range(1, 5)
            for word in all_words(a22, m)
            for pair in pairs
            for s in pair
        )
        # a miss looks its edge up again under the lock
        transitions = CountedEdges.gets - calls["after"]
        assert (new_steps, transitions) == (6216, 6216)

    def test_each_lane_log_is_read_once_per_word(self, a22, monkeypatch):
        # a lane's kept prefix and pending actions do not depend on the pair,
        # so one stream follows the lane for every pair it is in
        import superrsk.verify as verify

        calls = count_calls(monkeypatch, verify._Stream, "follow", "_pending")
        assert check_trace_alignment_grid(a22, 4).passed
        shuffles = all_shuffles(a22)
        new_steps = sum(
            insert_word(word, s, REGULAR_REGULAR).trace.path_lengths[-1]
            for m in range(1, 5)
            for word in all_words(a22, m)
            for s in shuffles
        )
        assert calls["follow"] == len(shuffles) * 4**4
        # a pending action per new step, and one more for the kept settle of
        # every word that keeps a prefix: all but the first of each first letter
        assert calls["_pending"] == new_steps + len(shuffles) * (4**4 - 4)


def payload(report):
    """A report's JSON payload without its timing."""
    out = report.to_json_dict()
    out.pop("elapsed_ms")
    return out


class TestSharedStepStates:
    """One table of step states per alphabet serves every lemma2.15 call."""

    def test_a_second_grid_call_interns_no_state(self, a22, monkeypatch):
        import superrsk.verify as verify

        first = check_trace_alignment_grid(a22, 4)
        calls = count_calls(monkeypatch, verify._States, "after")
        second = check_trace_alignment_grid(a22, 4)
        assert calls["after"] == 0
        assert payload(second) == payload(first) and second.passed

    def test_a_fault_run_on_a_warm_table_equals_one_on_a_cold_table(self, a22):
        import superrsk.verify as verify

        def faulty_run():
            with pytest.MonkeyPatch.context() as patch:
                install_fault(patch, a22)
                return check_trace_alignment_grid(a22, 4)

        verify._step_states.cache_clear()
        cold = faulty_run()
        verify._step_states.cache_clear()
        assert check_trace_alignment_grid(a22, 4).passed
        warm = faulty_run()
        assert cold.failures and warm.failures == cold.failures
        assert warm.stats["witness_counts"] == cold.stats["witness_counts"]

    def test_align_traces_keeps_no_table_past_the_call(self, a22, monkeypatch):
        import superrsk.verify as verify

        held = []
        init = verify._Stream.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            held.append(self.states)

        monkeypatch.setattr(verify._Stream, "__init__", recording)
        check_trace_alignment_grid(a22, 2)
        shared = verify._step_states(a22)
        size = (len(shared.edges), len(shared.states))
        a, b = all_shuffles(a22)[:2]
        word = parse_word("u2,t1,t2,u1", a22)  # longer than the grid's words
        traces = [insert_word(word, s, REGULAR_REGULAR).trace for s in (a, b)]
        del held[:]
        align_traces(traces[0], a, traces[1], b)
        assert len(held) == 2 and held[0] is held[1] and held[0] is not shared
        assert (len(shared.edges), len(shared.states)) == size

    def test_four_threads_on_a_cold_table_report_as_one_thread(self, a22):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        import superrsk.verify as verify

        verify._step_states.cache_clear()
        single = payload(check_trace_alignment_grid(a22, 3))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often, so misses interleave
        try:
            for _ in range(3):
                verify._step_states.cache_clear()
                with ThreadPoolExecutor(max_workers=4) as pool:
                    reports = list(pool.map(
                        lambda _: check_trace_alignment_grid(a22, 3), range(4)
                    ))
                assert [payload(report) for report in reports] == [single] * 4
                # every state has an id of its own
                states = verify._step_states(a22)
                assert len(states.known) == len(states.cls) == len(states.states)
                assert sorted(states.known.values()) == list(range(len(states.states)))
        finally:
            sys.setswitchinterval(interval)

    def test_the_tables_kept_are_bounded_by_alphabets_not_calls(self):
        import superrsk.verify as verify

        verify._step_states.cache_clear()
        # the fifth alphabet evicts the first, which then misses again
        for k, l in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 1), (1, 1)):
            assert check_trace_alignment_grid(Alphabet(k, l), 2).passed
        info = verify._step_states.cache_info()
        assert info.currsize == verify._KEPT_ALPHABETS == 4
        assert (info.hits, info.misses) == (1, 6)


def stacking_insert(rows, cols, x, is_t, find_t, find_u, log):
    """A faulty insertion: x settles in a new row while P has fewer than two
    rows, and at the end of the second row after that."""
    i = min(len(rows), 1)
    j = len(rows[i]) if i < len(rows) else 0
    if i == len(rows):
        rows.append([x])
    else:
        rows[i].append(x)
    if j == len(cols):
        cols.append([x])
    else:
        cols[j].append(x)
    if log is not None:
        log.append((i + 1, j + 1, x, None))
    return i


class TestDeferredDiagramCheck:
    def test_a_corner_fault_raises_on_the_final_rows(self, a22, monkeypatch):
        import superrsk.insertion as insertion

        source, target = all_shuffles(a22)[:2]
        word = Word((t(1), u(2), t(2), u(1)))
        held = insert_word(word, source, REGULAR_REGULAR)
        monkeypatch.setattr(insertion, "_insert_rank", stacking_insert)
        lane = insertion._Lane(source, REGULAR_REGULAR)
        check = insertion._check_diagrams
        # the walk checks each word itself; here the test checks each one
        monkeypatch.setattr(insertion, "_check_diagrams", lambda lanes: None)
        first4 = tuple(lane.letter[x] for x in (0, 1, 2, 3))
        walk = insertion._walk(iter([first4, first4[:3], first4[:2]]), [lane])
        next(walk)
        assert lane.bad == 3  # the third letter's settle left row 2 longer than row 1
        with pytest.raises(ValueError, match=r"^row lengths must be weakly decreasing: \[1, 3\]$"):
            check([lane])
        next(walk)
        with pytest.raises(ValueError, match=r"^row lengths must be weakly decreasing: \[1, 2\]$"):
            check([lane])
        next(walk)  # takes back the bad settle
        assert lane.bad is None and lane.rows == [[0], [1]]
        check([lane])
        monkeypatch.setattr(insertion, "_check_diagrams", check)
        with pytest.raises(ValueError, match=r"^row lengths must be weakly decreasing: \[1, 3\]$"):
            list(insertion._walk(iter([first4]), [insertion._Lane(source, REGULAR_REGULAR)]))
        # the grids see the same message as building a Tableau of the final rows:
        # the walk checks each word (theorem3's too), and converse each inserted word
        # (at n = 2 the fault only stacks a column, which is still a diagram)
        for token in ("2", "theorem3", "converse"):
            with pytest.raises(ValueError, match=r"^row lengths must be weakly decreasing: \[1, 2\]$"):
                run_token(token, a22, 3)
        # insert_word, and change_shuffle's re-insertion, build P unchecked
        # once the rows pass that same check
        for n, lengths in ((3, "1, 2"), (4, "1, 3")):
            text = rf"^row lengths must be weakly decreasing: \[{lengths}\]$"
            with pytest.raises(ValueError, match=text):
                insert_word(Word(word.letters[:n]), source, REGULAR_REGULAR)
        with pytest.raises(ValueError, match=text):
            change_shuffle(held.p, held.q, source, target, REGULAR_REGULAR)

    def test_a_note_whose_rows_became_a_diagram_again_passes(self, a22, monkeypatch):
        import superrsk.insertion as insertion

        lane = insertion._Lane(all_shuffles(a22)[0], REGULAR_REGULAR)
        monkeypatch.setattr(insertion, "_insert_rank", stacking_insert)
        # the walk's own check would refuse the first word's rows
        monkeypatch.setattr(insertion, "_check_diagrams", lambda lanes: None)
        first3 = tuple(lane.letter[x] for x in (0, 1, 2))
        walk = insertion._walk(iter([first3, (*first3, lane.letter[0])]), [lane])
        next(walk)
        monkeypatch.undo()
        next(walk)  # a true insertion of t1 settles at the end of row 1; the walk checks it
        assert lane.bad is not None and lane.rows == [[0, 0], [1, 2]]
        insertion._check_diagrams([lane])


def lane_state(lane):
    """Everything a lane holds that pushing letters changes."""
    return lane.rows, lane.cols, lane.qrows, lane.log, lane.marks, lane.bad


class TestLaneTakeBack:
    @pytest.mark.parametrize("faulty", [False, True], ids=["true", "faulty"])
    @pytest.mark.parametrize("bounded", [False, True], ids=["whole", "lemma2.6"])
    def test_taking_back_then_pushing_the_same_letters_restores_a_fresh_lane(
        self, monkeypatch, bounded, faulty
    ):
        # a lemma2.6 lane pushes only the letters up to its bound; the fault
        # leaves rows that are no diagram, so ``bad`` is set and taken back,
        # and the walk's diagram check, which would refuse them, is skipped
        import superrsk.insertion as insertion

        if faulty:
            monkeypatch.setattr(insertion, "_insert_rank", stacking_insert)
            monkeypatch.setattr(insertion, "_check_diagrams", lambda lanes: None)
        alphabet = Alphabet(3, 2)
        rng = random.Random(5)
        bads = 0
        for shuffle in all_shuffles(alphabet):
            for variant in VARIANTS:
                bound = shuffle.rank(t(2)) if bounded else None

                def filled(letters):
                    lane = insertion._Lane(shuffle, variant, bound)
                    next(insertion._walk(iter([letters]), [lane]))
                    return lane

                for _ in range(6):
                    word = tuple(rng.randrange(alphabet.size) for _ in range(rng.randrange(10)))
                    m = rng.randrange(len(word) + 1)
                    lane = insertion._Lane(shuffle, variant, bound)
                    walk = insertion._walk(iter([word, word[:m], word]), [lane])
                    next(walk)
                    assert len(lane.marks) == len(word)
                    assert lane_state(lane) == lane_state(filled(word))
                    bads += lane.bad is not None
                    next(walk)  # takes back every letter after the m-th
                    assert lane_state(lane) == lane_state(filled(word[:m]))
                    next(walk)
                    assert lane_state(lane) == lane_state(filled(word))
        assert (bads > 0) == faulty


class TestMimicryOnTheWalk:
    @pytest.mark.parametrize("k,l,n", [(2, 2, 3), (3, 2, 3), (1, 3, 4)])
    @pytest.mark.parametrize("mode", ["exhaustive", Sample(9, 2)], ids=["exhaustive", "sampled"])
    @pytest.mark.parametrize("faulty", [False, True], ids=["true", "faulty"])
    def test_matches_the_single_case_predicate(self, monkeypatch, k, l, n, mode, faulty):
        import oracles
        import superrsk.verify as verify
        from superrsk.bijection import Standardization

        if faulty:
            # send the fresh letters back to the original u's in reverse order
            original = verify.standardize_u

            def misread(v, shuffle):
                std = original(v, shuffle)
                fresh = [new for new, _ in std.source_map]
                olds = [old for _, old in std.source_map][::-1]
                return Standardization(
                    std.word, std.shuffle, tuple(zip(fresh, olds))
                )

            monkeypatch.setattr(verify, "standardize_u", misread)
            monkeypatch.setattr(oracles, "standardize_u", misread)
        alphabet = Alphabet(k, l)
        report = verify.check_standardization_mimicry_grid(alphabet, n, mode)
        expected = [
            (str(word), str(s))
            for word in reference_words(alphabet, n, mode)
            for s in all_shuffles(alphabet)
            if not oracles.check_standardization_mimicry(word, s)
        ]
        assert report.cases_run == len(reference_words(alphabet, n, mode)) * comb(k + l, k)
        assert [(f.word, f.shuffles) for f in report.failures] == expected
        assert bool(expected) == faulty

    @pytest.mark.parametrize("k,l,n", [(2, 2, 4), (1, 3, 4), (0, 2, 3), (2, 0, 2)])
    def test_relabels_every_word_as_the_letter_level_reference(self, monkeypatch, k, l, n):
        import oracles
        import superrsk.verify as verify

        relabel = verify._relabel
        seen = {}

        def spy(word, k_, l_, kind):
            seen[word] = relabel(word, k_, l_, kind)
            return seen[word]

        monkeypatch.setattr(verify, "_relabel", spy)
        alphabet = Alphabet(k, l)
        assert verify.check_standardization_mimicry_grid(alphabet, n).passed
        assert sorted(seen) == list(product(range(alphabet.size), repeat=n))
        letters, shuffle = alphabet.letters(), all_shuffles(alphabet)[-1]
        for word, (counts, relabelled) in seen.items():
            ref = oracles.standardize(Word(tuple(letters[a] for a in word)), shuffle, "u")
            derived = ref.shuffle.alphabet.letters()
            assert tuple(derived[a] for a in relabelled) == ref.word.letters
            assert counts == tuple(sum(1 for a in word if a == k + j) for j in range(l))


# a bump search made wrong for one shuffle: under a regular u-rule, once P
# has two rows, the t-search of the faulty order (by default t1<u1<t2<u2)
# switches between the regular and the dual rule
FAULTY_ORDER = "t1<u1<t2<u2"


def install_fault(monkeypatch, alphabet, order=FAULTY_ORDER):
    import superrsk.insertion as insertion

    broken = [x.kind == "t" for x in parse_shuffle(order, alphabet).order]
    original = insertion._insert_rank
    swap = {bisect_right: bisect_left, bisect_left: bisect_right}

    def faulty(rows, cols, x, is_t, find_t, find_u, log):
        if is_t == broken and find_u is bisect_right and len(rows) > 1:
            find_t = swap[find_t]
        return original(rows, cols, x, is_t, find_t, find_u, log)

    monkeypatch.setattr(insertion, "_insert_rank", faulty)


def reference_words(alphabet, n, mode):
    if mode == "exhaustive":
        return list(all_words(alphabet, n))
    rng = random.Random(mode.seed)
    letters = alphabet.letters()
    return [Word(tuple(rng.choice(letters) for _ in range(n))) for _ in range(mode.count)]


def reference_cases(token, alphabet, words, variant):
    """The word grids as per-word insert_word loops, yielding None or a CaseFailure."""
    shuffles = all_shuffles(alphabet)
    pairs = [(a, b) for a, b in combinations(shuffles, 2) if adjacent_transposition(a, b)]
    name = variant.name

    def fail(word, shuffles, expected, actual, variant=name):
        return CaseFailure(str(word), shuffles, variant, expected, actual)

    for word in words:
        if token in ("2", "5"):
            results = [insert_word(word, s, variant) for s in shuffles]
            for (i, ri), (j, rj) in combinations(enumerate(results), 2):
                if ri.p.shape == rj.p.shape and ri.q == rj.q:
                    yield None
                else:
                    yield fail(word, f"{shuffles[i]} | {shuffles[j]}",
                               "equal shapes and recording tableaux",
                               f"shapes {ri.p.shape} vs {rj.p.shape}, q equal: {ri.q == rj.q}")
        elif token == "lemma2.6":
            for s in shuffles:
                big = insert_word(word, s, REGULAR_REGULAR).p
                for x in alphabet.letters():
                    small = _restricted_p(word, s, x, REGULAR_REGULAR)
                    yield None if is_subtableau(small, big) else fail(
                        word, str(s), f"restriction to letters <= {x} is a subtableau",
                        "subtableau containment failed")
        elif token == "lemma2.15":
            for a, b in pairs:
                trace_a = insert_word(word, a, REGULAR_REGULAR).trace
                trace_b = insert_word(word, b, REGULAR_REGULAR).trace
                try:
                    yield align_traces(trace_a, a, trace_b, b).witness_count
                except AlignmentError as exc:
                    yield fail(word, f"{a} | {b}",
                               "an alignment with equivalent matched states", str(exc))
        elif token == "lemma3.2":
            us = [x for x in word if x.kind == "u"]
            if len(us) == len(set(us)):
                for s in shuffles:
                    yield None if check_dual_regular_agreement(word, s) else fail(
                        word, str(s), "identical insertion and recording tableaux",
                        "outputs differ", "reg-reg vs reg-dual")
        elif token == "paths":
            for s in shuffles:
                yield None if check_path_monotonicity(insert_word(word, s, variant)) else fail(
                    word, str(s), "monotone bump targets", "a bumped element drifted outward")
        elif token == "cells":
            for s in shuffles:
                ok = check_cell_monotonicity(insert_word(word, s, variant), s)
                yield None if ok else fail(
                    word, str(s), "entries only shrink in place", "a cell emptied or its entry grew")
        elif token == "region1":
            for a, b in pairs:
                yield None if check_region1_agreement(word, a, b) else fail(
                    word, f"{a} | {b}", "identical low-letter subtableaux", "low regions differ")
        elif token == "round-trip":
            for s in shuffles:
                result = insert_word(word, s, variant)
                back = reverse_word(result.p, result.q, s, variant)
                yield None if back == word else fail(word, str(s), str(word), str(back))


def outcome(run):
    """(cases, failures, witness histogram) of a run, or the ValueError it raised."""
    try:
        return run()
    except ValueError as exc:
        return f"ValueError: {exc}"


def reference_outcome(token, alphabet, n, variant, mode):
    cases, failures, witnesses = 0, [], {}
    for case in reference_cases(token, alphabet, reference_words(alphabet, n, mode), variant):
        cases += 1
        if isinstance(case, CaseFailure):
            failures.append(case)
        elif case is not None:
            witnesses[str(case)] = witnesses.get(str(case), 0) + 1
    return cases, failures, dict(sorted(witnesses.items()))


def grid_outcome(token, alphabet, n, variant, mode):
    report = run_token(token, alphabet, n, variant, mode)
    return report.cases_run, list(report.failures), report.stats.get("witness_counts", {})


def theorem3_reference(alphabet, n, fillings_of=enumerate_ssyt):
    """theorem3 case by case from public functions: the case count, the
    failures in the grid's order (each case's, then the findings about each
    recorder's map) and the most distinct maps of any ordered shuffle pair,
    per shape.  ``fillings_of`` lists a shape's fillings under a shuffle."""
    shuffles = all_shuffles(alphabet)
    profile = variant_profile(REGULAR_REGULAR)

    def content(tab):
        return sorted(x for row in tab.rows for x in row)

    cases, failures, distinct = 0, [], {}
    for shape in partitions(n):
        recorders = enumerate_syt(shape)
        fillings = {s: fillings_of(shape, alphabet, s, REGULAR_REGULAR) for s in shuffles}
        for a, b in product(shuffles, repeat=2):
            if a == b:
                continue
            maps = set()
            for q in recorders:
                images = []
                for p in fillings[a]:
                    back = reverse_word(p, q, a, REGULAR_REGULAR)
                    image = insert_word(back, b, REGULAR_REGULAR).p
                    images.append(image)
                    problems = []
                    if image.shape != shape:
                        problems.append(f"shape changed to {image.shape}")
                    if not is_valid(image, b, profile):
                        problems.append("image not valid under target order")
                    if content(image) != content(p):
                        problems.append("content changed")
                    cases += 1
                    if problems:
                        failures.append(CaseFailure(
                            "", f"{a} -> {b}", "reg-reg", "valid, content-preserving image",
                            "; ".join(problems),
                        ))
                if len(set(images)) != len(images):
                    failures.append(CaseFailure(
                        "", f"{a} -> {b}", "reg-reg", "injective map", "two fillings share an image"
                    ))
                if len(fillings[a]) != len(fillings[b]):
                    failures.append(CaseFailure(
                        "", f"{a} -> {b}", "reg-reg", "equal counts on both sides",
                        f"{len(fillings[a])} vs {len(fillings[b])}",
                    ))
                maps.add(tuple(images))
            distinct[str(shape)] = max(distinct.get(str(shape), 0), len(maps))
    return cases, failures, distinct


class TestFailureRecordsUnderAFault:
    @pytest.mark.parametrize(
        "mode,n", [("exhaustive", 3), (Sample(40, 3), 4)], ids=["exhaustive", "sampled"]
    )
    @pytest.mark.parametrize("token", WALK_TOKENS)
    def test_failures_match_per_word_reference(self, a22, monkeypatch, token, mode, n):
        install_fault(monkeypatch, a22)
        variants = VARIANTS if token in ("5", "paths", "cells", "round-trip") else [REGULAR_REGULAR]
        recorded = 0
        for variant in variants:
            expected = outcome(lambda: reference_outcome(token, a22, n, variant, mode))
            assert outcome(lambda: grid_outcome(token, a22, n, variant, mode)) == expected
            recorded += not isinstance(expected, str) and len(expected[1]) > 0
        # the fault leaves both monotonicity claims true, and round trips stop
        # at reverse_word's validity guard; every other grid records failures
        assert (recorded > 0) == (token not in ("paths", "cells", "round-trip"))

    @pytest.mark.parametrize(
        "mode,n", [("exhaustive", 3), (Sample(40, 3), 4)], ids=["exhaustive", "sampled"]
    )
    def test_round_trip_failures_match_under_a_reversal_fault(self, a22, monkeypatch, mode, n):
        # the regular displacement search made weak: reg-reg reversals go wrong
        monkeypatch.setitem(_SEARCH, "regular", (bisect_right, bisect_right))
        expected = reference_outcome("round-trip", a22, n, REGULAR_REGULAR, mode)
        assert grid_outcome("round-trip", a22, n, REGULAR_REGULAR, mode) == expected
        assert expected[1]

    def test_one_displacement_fault_reaches_every_reversal(self, a22, monkeypatch):
        # the same fault as above, in the one table that reverse_word,
        # change_shuffle and the round-trip grid all read
        shuffles = all_shuffles(a22)
        cases = [
            (word, s, insert_word(word, s, REGULAR_REGULAR))
            for word in all_words(a22, 3) for s in shuffles
        ]
        healthy = [change_shuffle(r.p, r.q, s, shuffles[0], REGULAR_REGULAR) for _, s, r in cases]
        monkeypatch.setitem(_SEARCH, "regular", (bisect_right, bisect_right))
        backs = [reverse_word(r.p, r.q, s, REGULAR_REGULAR) for _, s, r in cases]
        wrong = {(str(word), str(s)) for (word, s, _), back in zip(cases, backs) if back != word}
        report = check_round_trip_grid(a22, 3, REGULAR_REGULAR)
        assert wrong and {(f.word, f.shuffles) for f in report.failures} == wrong
        moved = 0
        for (word, s, r), back, image in zip(cases, backs, healthy):
            faulty = change_shuffle(r.p, r.q, s, shuffles[0], REGULAR_REGULAR)
            assert faulty == insert_word(back, shuffles[0], REGULAR_REGULAR).p
            moved += faulty != image
        assert moved

    @pytest.mark.parametrize("token", ["2", "5"])
    def test_shape_failures_match_with_many_lanes(self, monkeypatch, token):
        # 10 shuffles and 45 pairs a word: a word whose keys differ is
        # compared pair by pair, and its failures keep the pair order
        alphabet = Alphabet(3, 2)
        install_fault(monkeypatch, alphabet, "t1<u1<t2<u2<t3")
        variants = VARIANTS if token == "5" else [REGULAR_REGULAR]
        recorded = 0
        for variant in variants:
            expected = outcome(lambda: reference_outcome(token, alphabet, 3, variant, "exhaustive"))
            assert outcome(lambda: grid_outcome(token, alphabet, 3, variant, "exhaustive")) == expected
            recorded += not isinstance(expected, str) and len(expected[1]) > 0
        assert recorded > 0

    @pytest.mark.parametrize("lossy", [False, True], ids=["all-fillings", "a-filling-lost"])
    def test_theorem3_failures_match_per_case_reference(self, a22, monkeypatch, lossy):
        import superrsk.verify as verify

        install_fault(monkeypatch, a22)
        fillings_of = enumerate_ssyt
        if lossy:
            # the faulty order loses the last filling of each shape, so every
            # map to or from it also records unequal counts
            faulty = parse_shuffle(FAULTY_ORDER, a22)

            def fillings_of(shape, alphabet, shuffle, variant):
                fillings = enumerate_ssyt(shape, alphabet, shuffle, variant)
                return fillings[:-1] if shuffle == faulty else fillings

            fill = verify._fill_ranks

            def lossy_fill(shape, shuffle, variant):
                fillings = fill(shape, shuffle, variant)
                return fillings[:-1] if shuffle == faulty else fillings

            monkeypatch.setattr(verify, "_fill_ranks", lossy_fill)
        report = check_weight_preserving_bijection_grid(a22, 3)
        cases, failures, distinct = theorem3_reference(a22, 3, fillings_of)
        assert (report.cases_run, len(report.failures)) == (cases, len(failures))
        assert list(report.failures) == failures
        assert report.stats["distinct_maps_by_shape"] == distinct
        findings = sum(f.expected == "equal counts on both sides" for f in failures)
        if lossy:
            # per recorder of each shape, 10 ordered pairs hold the faulty order
            assert findings == 10 * sum(len(enumerate_syt(shape)) for shape in partitions(3))
        else:
            assert (cases, len(failures), findings) == (1920, 20, 0)

    def test_converse_sees_the_fault(self, a22, monkeypatch):
        install_fault(monkeypatch, a22)
        report = check_converse_round_trip_grid(a22, 3)
        assert report.failures
        assert {f.shuffles for f in report.failures} == {FAULTY_ORDER}


def converse_reference(alphabet, n):
    """converse case by case from public functions: the case count and the
    failures in the grid's order, each (P, Q) reversed and its word inserted
    on its own."""
    cases, failures = 0, []
    for shape in partitions(n):
        for s in all_shuffles(alphabet):
            fillings = enumerate_ssyt(shape, alphabet, s, REGULAR_REGULAR)
            for q in enumerate_syt(shape):
                for p in fillings:
                    cases += 1
                    word = reverse_word(p, q, s, REGULAR_REGULAR)
                    back = insert_word(word, s, REGULAR_REGULAR)
                    p_same, q_same = back.p == p, back.q == q
                    if not (p_same and q_same):
                        failures.append(CaseFailure(
                            str(word), str(s), REGULAR_REGULAR.name,
                            "insertion gives back the reversed (P, Q)",
                            "P differs" if q_same else "Q differs" if p_same else "P and Q differ",
                        ))
    return cases, failures


class TestConverseRoundTrip:
    @pytest.mark.parametrize("k,l,n", [(2, 2, 3), (2, 1, 4), (1, 2, 4), (2, 0, 3), (0, 2, 3)])
    def test_every_pair_comes_back(self, k, l, n):
        report = check_converse_round_trip_grid(Alphabet(k, l), n)
        assert report.passed
        # RSK: the (P, Q) pairs of n cells are counted by the words of length n
        assert report.cases_run == (k + l) ** n * comb(k + l, k)

    def test_each_case_reverses_once_and_inserts_its_word_once(self, a22, monkeypatch):
        import superrsk.insertion as insertion
        import superrsk.verify as verify

        inserts = count_calls(monkeypatch, insertion, "_insert_rank")
        calls = count_calls(monkeypatch, verify, "_walk", "_reverse_ranks")
        report = check_converse_round_trip_grid(a22, 4)
        assert report.passed and report.cases_run == 4**4 * 6
        # one reversal and one unlogged insertion of its 4 letters per case,
        # from one walk per (shape, shuffle, recorder): the shapes of 4 have
        # 1 + 3 + 2 + 3 + 1 standard recorders
        assert calls["_reverse_ranks"] == report.cases_run
        assert calls["_walk"] == 10 * len(all_shuffles(a22)) == 60
        assert inserts["_insert_rank"] == 4 * report.cases_run == 6144

    def test_mimicry_inserts_on_the_walk_and_once_per_word_and_shuffle(self, a22, monkeypatch):
        import superrsk.insertion as insertion
        import superrsk.verify as verify

        inserts = count_calls(monkeypatch, insertion, "_insert_rank")
        calls = count_calls(monkeypatch, verify, "_walk")
        report = verify.check_standardization_mimicry_grid(a22, 4)
        assert report.passed and report.cases_run == 4**4 * 6
        # the walk of the word trie inserts once per node under each shuffle,
        # and each word's relabelling is inserted, all 4 letters, under each
        # derived shuffle by one walk per word
        assert calls["_walk"] == 1 + 4**4
        walked = 6 * (4 + 4**2 + 4**3 + 4**4)
        assert inserts["_insert_rank"] == walked + 4 * report.cases_run == 2040 + 6144 == 8184

    @pytest.mark.parametrize("k,l,n,order", [
        (2, 2, 3, FAULTY_ORDER), (2, 2, 4, FAULTY_ORDER), (3, 2, 3, "t1<u1<t2<u2<t3"),
        (2, 1, 4, "t1<u1<t2"),
    ])
    def test_failures_match_per_case_reference_under_a_fault(self, monkeypatch, k, l, n, order):
        alphabet = Alphabet(k, l)
        install_fault(monkeypatch, alphabet, order)
        report = check_converse_round_trip_grid(alphabet, n)
        cases, failures = converse_reference(alphabet, n)
        assert (report.cases_run, list(report.failures)) == (cases, failures)
        assert failures and {f.shuffles for f in failures} == {order}
