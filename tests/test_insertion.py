import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rec, tab
from oracles import all_words, hook_insert, order_adjacent_pairs, region2_shape_ok
from superrsk import (
    DUAL_DUAL,
    DUAL_REGULAR,
    REGULAR_DUAL,
    REGULAR_REGULAR,
    VARIANTS,
    Alphabet,
    InsertionTrace,
    PendingAction,
    RecordingTableau,
    Tableau,
    Word,
    all_shuffles,
    insert_letter,
    insert_word,
    is_standard,
    is_valid,
    parse_shuffle,
    parse_variant,
    parse_word,
    reverse_word,
    t,
    u,
    variant_profile,
)

A5 = parse_shuffle("t1<u1<t2<u2<t3", Alphabet(3, 2))


class TestWordParsing:
    def test_round_trip(self, a22):
        word = parse_word("u2,t1,t2,u1", a22)
        assert word.letters == (u(2), t(1), t(2), u(1))
        assert str(word) == "u2,t1,t2,u1"

    def test_empty_and_whitespace(self, a22):
        assert parse_word("", a22) == Word()
        assert parse_word(" u1 , t1 ", a22) == Word((u(1), t(1)))

    def test_outside_alphabet(self):
        with pytest.raises(ValueError):
            parse_word("t2", Alphabet(1, 1))

    def test_a_bad_token_is_quoted_stripped_as_in_a_shuffle(self, a22):
        # both parsers strip each token before they parse it or quote it
        for parse, text in ((parse_word, "t1, x"), (parse_shuffle, "t1< x")):
            with pytest.raises(ValueError, match=r"^cannot parse letter 'x' "):
                parse(text, a22)

    def test_all_words_count(self, a22):
        assert sum(1 for _ in all_words(a22, 3)) == 4**3


class TestVariant:
    def test_parse_names(self):
        assert parse_variant("reg-reg") == REGULAR_REGULAR
        assert parse_variant("dual-dual") == DUAL_DUAL
        with pytest.raises(ValueError):
            parse_variant("regular")

    @pytest.mark.parametrize(
        "variant,t_axis,u_axis",
        [
            (REGULAR_REGULAR, "columns", "rows"),
            (REGULAR_DUAL, "columns", "columns"),
            (DUAL_REGULAR, "rows", "rows"),
            (DUAL_DUAL, "rows", "columns"),
        ],
    )
    def test_profiles(self, variant, t_axis, u_axis):
        profile = variant_profile(variant)
        assert profile.t_strict_in == t_axis
        assert profile.u_strict_in == u_axis


class TestInsertLetter:
    def test_four_step_cascade(self):
        # one t entering a three-row tableau: four placements, ending with an
        # append at (2, 3); the four intermediate states are pinned below
        start = tab("u1 t2 t2 / u1 u2 / t3")
        final, steps = insert_letter(start, t(1), A5, REGULAR_REGULAR)
        assert final == tab("t1 u1 t2 / u1 t2 u2 / t3")
        assert [s.settled_cell for s in steps] == [(1, 1), (1, 2), (2, 2), (2, 3)]
        assert [s.state for s in steps] == [
            tab("t1 t2 t2 / u1 u2 / t3"),
            tab("t1 u1 t2 / u1 u2 / t3"),
            tab("t1 u1 t2 / u1 t2 / t3"),
            tab("t1 u1 t2 / u1 t2 u2 / t3"),
        ]
        assert [s.bumped for s in steps] == [
            PendingAction(u(1), "column", 2),
            PendingAction(t(2), "row", 2),
            PendingAction(u(2), "column", 3),
            None,
        ]

    def test_into_empty(self, a22, order_ttuu):
        for variant in VARIANTS:
            final, steps = insert_letter(Tableau(), u(2), order_ttuu, variant)
            assert final == tab("u2")
            assert len(steps) == 1 and steps[0].settled_cell == (1, 1)

    def test_bump_then_append(self, a22, order_ttuu):
        final, steps = insert_letter(tab("t1 u2"), t(2), order_ttuu, REGULAR_REGULAR)
        assert final == tab("t1 t2 u2")
        assert len(steps) == 2
        assert steps[0].settled_cell == (1, 2) and steps[1].settled_cell == (1, 3)

    def test_rejects_foreign_letter(self, order_ttuu):
        with pytest.raises(ValueError):
            insert_letter(Tableau(), t(3), order_ttuu, REGULAR_REGULAR)

    def test_rejects_invalid_tableau(self, order_ttuu):
        with pytest.raises(ValueError):
            insert_letter(tab("u1 u1"), t(1), order_ttuu, REGULAR_REGULAR)

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
    @pytest.mark.parametrize(
        "p,text",
        [
            ("t2 t1 u2 / u1", "tableau is not valid for this shuffle and variant"),
            ("t3", "letter t3 outside alphabet (k=2, l=2)"),  # a lone cell is valid
            ("t1 t3 / u1", "letter t3 is not in alphabet (k=2, l=2)"),
        ],
    )
    def test_guard_error_texts(self, order_ttuu, variant, p, text):
        with pytest.raises(ValueError) as error:
            insert_letter(tab(p), t(1), order_ttuu, variant)
        assert str(error.value) == text


class TestInsertWord:
    def test_four_letter_word_two_orders(self, a22, order_ttuu, order_uutt):
        word = parse_word("u2,t1,t2,u1", a22)
        ra = insert_word(word, order_ttuu, REGULAR_REGULAR)
        assert ra.p == tab("t1 t2 u2 / u1")
        assert ra.q == rec("1 2 3 / 4")
        rb = insert_word(word, order_uutt, REGULAR_REGULAR)
        assert rb.p == tab("u1 u2 t2 / t1")
        assert rb.q == rec("1 2 3 / 4")

    def test_seven_letter_word(self):
        word = parse_word("u1,t3,t2,u2,t2,u1,t1", Alphabet(3, 2))
        result = insert_word(word, A5, REGULAR_REGULAR)
        assert result.p == tab("t1 u1 t2 / u1 t2 u2 / t3")

    def test_dual_u_rule_four_letters(self):
        alph = Alphabet(2, 1)
        order = parse_shuffle("u1<t1<t2", alph)
        result = insert_word(parse_word("u1,t1,t2,u1", alph), order, REGULAR_DUAL)
        assert result.p == tab("u1 u1 t2 / t1")
        assert result.q == rec("1 2 3 / 4")

    def test_empty_word(self, order_ttuu):
        result = insert_word(Word(), order_ttuu, REGULAR_REGULAR)
        assert result.p == Tableau()
        assert result.q.rows == ()
        assert result.trace.steps == () and result.trace.path_lengths == ()

    def test_rejects_foreign_letters(self, order_ttuu):
        with pytest.raises(ValueError):
            insert_word(Word((t(3),)), order_ttuu, REGULAR_REGULAR)


class TestUncheckedConstructors:
    """P, Q and the recovered word are built by ``_of``, without the checks."""

    @pytest.mark.parametrize("n", [300, 0])
    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
    def test_built_values_match_checked_ones(self, variant, n):
        alph = Alphabet(5, 5)
        rng = random.Random(n)
        shuffle = rng.choice(all_shuffles(alph))
        word = Word(tuple(rng.choice(alph.letters()) for _ in range(n)))
        result = insert_word(word, shuffle, variant)
        back = reverse_word(result.p, result.q, shuffle, variant)
        pairs = [
            (result.p, Tableau(result.p.rows)),
            (result.q, RecordingTableau(result.q.rows)),
            (back, Word(back.letters)),
        ]
        for built, checked in pairs:
            assert type(built) is type(checked)
            assert built == checked and hash(built) == hash(checked)
            assert repr(built) == repr(checked)
        assert back == word

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
    def test_step_snapshots_match_checked_ones(self, variant):
        # a trace's snapshots and insert_letter's are built unchecked too;
        # insert_letter still refuses an invalid start (test_guard_error_texts)
        alph = Alphabet(5, 5)
        rng = random.Random(29)
        shuffle = rng.choice(all_shuffles(alph))
        word = Word(tuple(rng.choice(alph.letters()) for _ in range(300)))
        result = insert_word(word, shuffle, variant)
        _, more = insert_letter(result.p, rng.choice(alph.letters()), shuffle, variant)
        steps = (*result.trace.steps, *more)
        assert len(steps) > 300
        for step in steps:
            checked = Tableau(step.state.rows)
            assert type(step.state) is Tableau
            assert step.state == checked and hash(step.state) == hash(checked)
        assert repr(steps[-1].state) == repr(checked)

    def test_built_values_stay_frozen(self, order_ttuu, a22):
        result = insert_word(parse_word("u2,t1,t2,u1", a22), order_ttuu, REGULAR_REGULAR)
        back = reverse_word(result.p, result.q, order_ttuu, REGULAR_REGULAR)
        for built, name in ((result.p, "rows"), (result.q, "rows"), (back, "letters")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, name, ())


class TestPathLengthsAndStates:
    def test_seven_letter_path_lengths(self):
        word = parse_word("u1,t3,t2,u2,t2,u1,t1", Alphabet(3, 2))
        trace = insert_word(word, A5, REGULAR_REGULAR).trace
        assert trace.path_lengths == (1, 1, 2, 2, 1, 2, 4)
        assert trace.total == 13
        assert trace.state_after(7) == tab("u1 t2 t2 / u2 / t3")
        assert trace.state_after(8) == tab("u1 t2 t2 / u1 / t3")
        assert trace.state_after(1) == tab("u1")

    def test_two_letter_word_under_both_orders(self):
        alph = Alphabet(1, 1)
        A, B = all_shuffles(alph)  # t1<u1 then u1<t1
        word = Word((t(1), u(1)))
        ra = insert_word(word, A, REGULAR_REGULAR)
        assert ra.trace.path_lengths == (1, 1)
        assert ra.p == tab("t1 / u1")
        rb = insert_word(word, B, REGULAR_REGULAR)
        assert rb.trace.path_lengths == (1, 2)
        assert rb.p == tab("u1 / t1")

    def test_state_after_out_of_range(self, order_ttuu):
        trace = insert_word(Word((t(1),)), order_ttuu, REGULAR_REGULAR).trace
        with pytest.raises(IndexError):
            trace.state_after(0)
        with pytest.raises(IndexError):
            trace.state_after(2)


class TestStructuralInvariants:
    def test_exhaustive_small_grid(self, a22):
        shuffles = all_shuffles(a22)
        for n in range(0, 5):
            for word in all_words(a22, n):
                for shuffle in shuffles:
                    for variant in VARIANTS:
                        result = insert_word(word, shuffle, variant)
                        profile = variant_profile(variant)
                        assert is_valid(result.p, shuffle, profile)
                        assert is_standard(result.q)
                        assert result.p.shape == result.q.shape
                        assert result.p.size == len(word)
                        assert sum(result.trace.path_lengths) == result.trace.total

    def test_regular_insertion_region_profiles(self, a22):
        # only the regular-regular class guarantees the pair-region picture;
        # the dual rules break it (repeated u's can share a row, etc.)
        shuffles = all_shuffles(a22)
        for n in range(0, 5):
            for word in all_words(a22, n):
                for shuffle in shuffles:
                    p = insert_word(word, shuffle, REGULAR_REGULAR).p
                    for pair in order_adjacent_pairs(shuffle):
                        assert region2_shape_ok(p, shuffle, pair)

    def test_dual_rules_break_region_profile(self):
        # measured counterexample kept as a regression anchor
        alph = Alphabet(1, 1)
        order = parse_shuffle("t1<u1", alph)
        p = insert_word(parse_word("u1,u1", alph), order, DUAL_DUAL).p
        assert p == tab("u1 u1")
        (pair,) = order_adjacent_pairs(order)
        assert not region2_shape_ok(p, order, pair)

    def test_determinism(self, a22, order_ttuu):
        word = parse_word("u2,t1,t2,u1", a22)
        first = insert_word(word, order_ttuu, REGULAR_REGULAR)
        second = insert_word(word, order_ttuu, REGULAR_REGULAR)
        assert first == second

    def test_step_indices_are_global(self, a22, order_ttuu):
        word = parse_word("u2,t1,t2,u1", a22)
        trace = insert_word(word, order_ttuu, REGULAR_REGULAR).trace
        assert [s.index for s in trace.steps] == list(range(1, trace.total + 1))
        assert [s.letter_ordinal for s in trace.steps] == [1, 2, 2, 3, 3, 4]


class TestOneRankCore:
    def test_one_patch_reaches_every_driver(self, a22, monkeypatch):
        # every driver inserts through insertion's module global, so a driver
        # that bound its own copy of the core would read 0 calls here
        import superrsk.insertion as insertion
        from superrsk import change_shuffle

        calls = [0]
        original = insertion._insert_rank

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(insertion, "_insert_rank", counted)
        source, target = all_shuffles(a22)[0], all_shuffles(a22)[-1]
        word = parse_word("u2,t1,t2,u1,t1,u2,u1", a22)
        result = insert_word(word, source, REGULAR_REGULAR)
        assert calls[0] == len(word) == 7
        calls[0] = 0
        insert_letter(result.p, t(2), source, REGULAR_REGULAR)
        assert calls[0] == 1
        calls[0] = 0
        change_shuffle(result.p, result.q, source, target, REGULAR_REGULAR)
        assert calls[0] == result.p.size == 7


def longest_equal_run(log) -> int:
    """The most consecutive placements in a log that each bump an equal entry."""
    longest = run = 0
    for _, _, x, y in log:
        run = run + 1 if x == y else 0
        longest = max(longest, run)
    return longest


class TestEqualRuns:
    def test_unlogged_lanes_agree_with_the_stepping_walk(self):
        # insert_word and reverse_word pass each run of equal entries in one
        # bisection; _insert_traced logs, so it steps through every placement
        from superrsk.insertion import _insert_traced

        rng = random.Random(21)
        longest = dict.fromkeys(VARIANTS, 0)
        for k, l in ((1, 1), (2, 3), (3, 2), (5, 5)):
            alphabet = Alphabet(k, l)
            letters, shuffles = alphabet.letters(), all_shuffles(alphabet)
            for n in (7, 60, 300):
                for share in (0, 0.6):  # how often one letter repeats, skewing the word
                    heavy = rng.choice(letters)
                    word = Word(tuple(
                        heavy if rng.random() < share else rng.choice(letters) for _ in range(n)
                    ))
                    shuffle = rng.choice(shuffles)
                    for variant in VARIANTS:
                        result = insert_word(word, shuffle, variant)
                        traced = _insert_traced(word, shuffle, variant)
                        assert (result.p, result.q) == (traced.p, traced.q)
                        assert reverse_word(result.p, result.q, shuffle, variant) == word
                        run = longest_equal_run(traced.trace.log)
                        longest[variant] = max(longest[variant], run)
        # only a dual rule bumps an equal entry, and every one met long runs
        assert longest[REGULAR_REGULAR] == 0
        assert all(longest[v] >= 3 for v in (REGULAR_DUAL, DUAL_REGULAR, DUAL_DUAL))


def record_core_logs(monkeypatch) -> list:
    """Wrap the one rank core; returns the list of the log each call was given."""
    import superrsk.insertion as insertion

    logs = []
    original = insertion._insert_rank

    def recorded(rows, cols, x, is_t, find_t, find_u, log):
        logs.append(log)
        return original(rows, cols, x, is_t, find_t, find_u, log)

    monkeypatch.setattr(insertion, "_insert_rank", recorded)
    return logs


def eager_trace(word, shuffle, variant):
    """The trace of a logged lane that the walk filled letter by letter,
    built through the constructor."""
    from superrsk.insertion import _Lane, _ranks_of, _walk

    lane = _Lane(shuffle, variant)
    list(_walk([tuple(lane.letter[x] for x in _ranks_of(word, shuffle))], [lane]))
    marks = [*lane.marks, len(lane.log)]
    lengths = tuple(b - a for a, b in zip(marks, marks[1:]))
    return InsertionTrace(lengths, tuple(lane.log), shuffle.order)


class TestWalk:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(1, 1), (2, 2), (3, 2), (2, 3)]), st.data())
    def test_each_walked_lane_holds_what_a_fresh_lane_fills(self, kl, data):
        # after every word of a random sequence, each walked lane, bounded or
        # not, holds what the walk of that word alone gives a fresh lane; the
        # unlogged lanes, walked alongside, hold the logged lanes' P, Q and
        # diagram note.  Every other word extends the one before, which an
        # unlogged lane continues, and the rest drop letters, which starts it
        # afresh
        from superrsk.insertion import _Lane, _walk

        alphabet = Alphabet(*kl)
        letters = st.integers(0, alphabet.size - 1)
        tails = data.draw(st.lists(
            st.tuples(st.lists(letters, max_size=4).map(tuple), st.integers(0, 7)),
            min_size=2, max_size=8,
        ))
        words, word = [], ()
        for m, (tail, cut) in enumerate(tails):
            if m % 2 == 0 and word:  # drops at least its last letter
                word = word[:cut % len(word)]
            word += tail
            words.append(word)
        shuffle = data.draw(st.sampled_from(all_shuffles(alphabet)))
        made = [(v, b) for v in VARIANTS for b in (None, *range(alphabet.size))]
        lanes = [_Lane(shuffle, v, b) for v, b in made]
        unlogged = [_Lane(shuffle, v, b, logged=False) for v, b in made]
        walked = 0
        for word in _walk(iter(words), lanes + unlogged):
            for (variant, bound), lane, bare in zip(made, lanes, unlogged):
                fresh = _Lane(shuffle, variant, bound)
                next(_walk(iter([word]), [fresh]))
                assert lane_state(lane) == lane_state(fresh)
                assert lane_state(bare)[:3] == lane_state(lane)[:3]
                assert bare.bad == lane.bad
            walked += 1
        assert walked == len(words)


def lane_state(lane):
    """Everything a lane holds that inserting letters changes."""
    return lane.rows, lane.cols, lane.qrows, lane.log, lane.marks, lane.bad


class TestDeferredTrace:
    WORD = "u2,t1,t2,u1,t1,u2,u1,t2"

    def test_insert_word_keeps_no_log(self, a22, order_ttuu, monkeypatch):
        logs = record_core_logs(monkeypatch)
        word = parse_word(self.WORD, a22)
        for variant in VARIANTS:
            insert_word(word, order_ttuu, variant)
        assert len(logs) == 4 * len(word) and all(log is None for log in logs)

    @pytest.mark.parametrize("read", ["path_lengths", "log", "total", "steps", "state_after"])
    def test_first_read_logs_one_insertion_and_a_second_none(
        self, a22, order_ttuu, monkeypatch, read
    ):
        word = parse_word(self.WORD, a22)
        trace = insert_word(word, order_ttuu, REGULAR_DUAL).trace
        logs = record_core_logs(monkeypatch)

        def reading():
            value = getattr(trace, read)
            return value(1) if read == "state_after" else value

        first = reading()
        assert len(logs) == len(word) and all(isinstance(log, list) for log in logs)
        assert len({id(log) for log in logs}) == 1  # one logged walk
        del logs[:]
        assert reading() == first
        _ = trace.path_lengths, trace.log, trace.total, trace.steps
        assert logs == []

    def test_equals_the_eager_trace_on_every_small_word(self, a22):
        shuffles = all_shuffles(a22)
        for n in range(0, 5):
            for word in all_words(a22, n):
                for shuffle in shuffles:
                    for variant in VARIANTS:
                        eager = eager_trace(word, shuffle, variant)
                        deferred = insert_word(word, shuffle, variant).trace
                        assert repr(deferred) == repr(eager)
                        assert hash(deferred) == hash(eager)
                        assert deferred.log == eager.log
                        assert deferred.path_lengths == eager.path_lengths
                        assert deferred.total == eager.total
                        assert deferred == eager

    def test_steps_match_the_eager_trace(self, a22, order_uutt):
        word = parse_word(self.WORD, a22)
        for variant in VARIANTS:
            deferred = insert_word(word, order_uutt, variant).trace
            assert deferred.steps == eager_trace(word, order_uutt, variant).steps

    @pytest.mark.parametrize(
        "copy_of", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    @pytest.mark.parametrize("filled", [False, True], ids=["deferred", "filled"])
    def test_copies_round_trip(self, a22, order_ttuu, copy_of, filled):
        word = parse_word(self.WORD, a22)
        result = insert_word(word, order_ttuu, DUAL_REGULAR)
        if filled:
            _ = result.trace.steps
        assert ("log" in vars(result.trace)) == filled
        back = copy_of(result)
        assert ("log" in vars(back.trace)) == filled
        assert back == result and hash(back.trace) == hash(result.trace)
        assert back.trace.steps == result.trace.steps
        assert back.trace == eager_trace(word, order_ttuu, DUAL_REGULAR)

    def test_filling_twice_gives_the_same_value(self, a22, order_ttuu):
        # two readers may both fill one trace; neither loses what it needs
        trace = insert_word(parse_word(self.WORD, a22), order_ttuu, REGULAR_REGULAR).trace
        recipe = vars(trace)["_recipe"]
        first = (trace.path_lengths, trace.log)
        del vars(trace)["path_lengths"], vars(trace)["log"]
        assert (trace.path_lengths, trace.log) == first
        assert vars(trace)["_recipe"] is recipe

    def test_change_shuffle_keeps_no_log(self, a22, monkeypatch):
        from superrsk import change_shuffle

        source, target = all_shuffles(a22)[0], all_shuffles(a22)[-1]
        logs = record_core_logs(monkeypatch)
        for variant in VARIANTS:
            result = insert_word(parse_word(self.WORD, a22), source, variant)
            del logs[:]
            change_shuffle(result.p, result.q, source, target, variant)
            assert len(logs) == result.p.size and all(log is None for log in logs)

    def test_the_constructor_still_checks_the_sum(self, order_ttuu):
        with pytest.raises(ValueError, match="path lengths must sum to the step count"):
            InsertionTrace((1, 1), ((1, 1, 0, None),), order_ttuu.order)


@st.composite
def word_and_order(draw):
    k = draw(st.integers(min_value=0, max_value=3))
    l = draw(st.integers(min_value=0, max_value=3 - k if k < 3 else 0))
    if k + l == 0:
        l = 1
    alph = Alphabet(k, l)
    shuffles = all_shuffles(alph)
    shuffle = shuffles[draw(st.integers(0, len(shuffles) - 1))]
    letters = alph.letters()
    n = draw(st.integers(0, 6))
    word = Word(tuple(letters[draw(st.integers(0, len(letters) - 1))] for _ in range(n)))
    variant = VARIANTS[draw(st.integers(0, 3))]
    return word, shuffle, variant


@given(word_and_order())
@settings(max_examples=150, deadline=None)
def test_insertion_validity_random(case):
    word, shuffle, variant = case
    result = insert_word(word, shuffle, variant)
    assert is_valid(result.p, shuffle, variant_profile(variant))
    assert is_standard(result.q)
    assert result.p.shape == result.q.shape


@st.composite
def long_word_and_order(draw):
    k = draw(st.integers(min_value=0, max_value=5))
    l = draw(st.integers(min_value=1 if k == 0 else 0, max_value=5))
    alph = Alphabet(k, l)
    shuffles = all_shuffles(alph)
    shuffle = shuffles[draw(st.integers(0, len(shuffles) - 1))]
    letters = alph.letters()
    indices = draw(st.lists(st.integers(0, len(letters) - 1), max_size=60))
    word = Word(tuple(letters[i] for i in indices))
    variant = draw(st.sampled_from(VARIANTS))
    return word, shuffle, variant


@given(long_word_and_order())
@settings(max_examples=200, deadline=None)
def test_rank_core_properties(case):
    word, shuffle, variant = case
    result = insert_word(word, shuffle, variant)
    # P and Q are built without the constructors' checks; the cell-by-cell
    # rule of ``hook_insert`` shares no code with the rank core
    assert (result.p.rows, result.q.rows) == hook_insert(word, shuffle, variant)
    trace = result.trace
    # total and path lengths come from the step log without building snapshots
    assert trace.total == sum(trace.path_lengths)
    assert len(trace.path_lengths) == len(word)
    assert "steps" not in vars(trace)
    assert reverse_word(result.p, result.q, shuffle, variant) == word
    if word.letters:
        assert trace.state_after(trace.total) == result.p
        assert "steps" in vars(trace)
        assert [s.index for s in trace.steps] == list(range(1, trace.total + 1))
    # equality ignores whether the snapshots have been built
    assert insert_word(word, shuffle, variant) == result

