import pytest

from conftest import rec, tab
from oracles import (
    all_words,
    check_standardization_mimicry,
    content_type,
    standardize,
    unmap_tableau,
)
from superrsk import (
    DUAL_REGULAR,
    REGULAR_DUAL,
    REGULAR_REGULAR,
    VARIANTS,
    Alphabet,
    RecordingTableau,
    Tableau,
    Word,
    all_shuffles,
    change_shuffle,
    enumerate_ssyt,
    enumerate_syt,
    insert_word,
    kl_shuffle,
    partitions,
    parse_shuffle,
    parse_word,
    reverse_word,
    standardize_t,
    standardize_u,
    t,
    u,
)


class TestReverseWord:
    def test_four_letter_example(self, a22, order_ttuu):
        word = reverse_word(
            tab("t1 t2 u2 / u1"), rec("1 2 3 / 4"), order_ttuu, REGULAR_REGULAR
        )
        assert str(word) == "u2,t1,t2,u1"

    def test_single_cell(self, a22, order_ttuu):
        assert reverse_word(tab("t1"), rec("1"), order_ttuu, REGULAR_REGULAR) == Word(
            (t(1),)
        )

    def test_empty(self, order_ttuu):
        assert reverse_word(Tableau(), rec(""), order_ttuu, REGULAR_REGULAR) == Word()

    def test_round_trip_exhaustive_small(self, a22):
        shuffles = all_shuffles(a22)
        for n in range(0, 4):
            for word in all_words(a22, n):
                for shuffle in shuffles:
                    for variant in VARIANTS:
                        result = insert_word(word, shuffle, variant)
                        back = reverse_word(result.p, result.q, shuffle, variant)
                        assert back == word

    def test_insert_after_reverse_is_identity_on_pairs(self, a22):
        # the other composition: every valid (P, Q) pair comes from its word
        shuffle = parse_shuffle("t1<u1<t2<u2", a22)
        for shape in ((2, 1), (2, 2)):
            for p in enumerate_ssyt(shape, a22, shuffle, REGULAR_REGULAR):
                for q in enumerate_syt(shape):
                    word = reverse_word(p, q, shuffle, REGULAR_REGULAR)
                    result = insert_word(word, shuffle, REGULAR_REGULAR)
                    assert result.p == p and result.q == q

    def test_shape_mismatch(self, order_ttuu):
        with pytest.raises(ValueError):
            reverse_word(tab("t1 t2"), rec("1 / 2"), order_ttuu, REGULAR_REGULAR)

    def test_non_standard_recorder(self, order_ttuu):
        with pytest.raises(ValueError):
            reverse_word(tab("t1 t2"), rec("2 1"), order_ttuu, REGULAR_REGULAR)

    def test_invalid_tableau(self, order_ttuu):
        with pytest.raises(ValueError):
            reverse_word(tab("u1 u1"), rec("1 2"), order_ttuu, REGULAR_REGULAR)


class TestReversalRunJumps:
    """Under a dual rule, a walking letter that meets a run of its equals
    passes the whole run in one bisection.  Stepping one line at a time
    recovers the same word, so only the number of searches tells them apart."""

    @pytest.mark.parametrize(
        "letter,variant,shape",
        [(t(1), DUAL_REGULAR, (1,) * 40), (u(1), REGULAR_DUAL, (40,))],
        ids=["t1-column", "u1-row"],
    )
    def test_one_search_a_letter(self, monkeypatch, letter, variant, shape):
        import superrsk.insertion as insertion

        word = Word((letter,) * 40)
        shuffle = kl_shuffle(Alphabet(1, 1))
        result = insert_word(word, shuffle, variant)
        assert result.p.shape == shape
        searches = 0

        def counted(search):
            def wrapper(*args):
                nonlocal searches
                searches += 1
                return search(*args)

            return wrapper

        # the reversal's lane binds its searches from the table when it is built
        dual = tuple(map(counted, insertion._SEARCH["dual"]))
        monkeypatch.setitem(insertion._SEARCH, "dual", dual)
        assert reverse_word(result.p, result.q, shuffle, variant) == word
        # the letter already in the first line searches nothing, each other one once
        assert searches <= len(word)


class TestChangeShuffle:
    def test_four_letter_example(self, a22, order_ttuu, order_uutt):
        image = change_shuffle(
            tab("t1 t2 u2 / u1"), rec("1 2 3 / 4"), order_ttuu, order_uutt, REGULAR_REGULAR
        )
        assert image == tab("u1 u2 t2 / t1")

    def test_identity_when_orders_coincide(self, a22, order_ttuu):
        p = tab("t1 t2 u2 / u1")
        assert change_shuffle(p, rec("1 2 3 / 4"), order_ttuu, order_ttuu,
                              REGULAR_REGULAR) == p

    def test_bijection_between_filling_families(self):
        # enumerate both sides and check image, injectivity and inverse
        alph = Alphabet(1, 1)
        A, B = all_shuffles(alph)
        shape = (2, 1)
        q = rec("1 2 / 3")
        source = enumerate_ssyt(shape, alph, A, REGULAR_REGULAR)
        target = enumerate_ssyt(shape, alph, B, REGULAR_REGULAR)
        images = [change_shuffle(p, q, A, B, REGULAR_REGULAR) for p in source]
        assert len(set(images)) == len(source) == len(target)
        assert set(images) == set(target)
        for p, image in zip(source, images):
            assert content_type(p, alph) == content_type(image, alph)
            assert change_shuffle(image, q, B, A, REGULAR_REGULAR) == p

    def test_matches_reverse_then_insert_everywhere(self, a22):
        # every (P, Q) of at most four cells, every ordered pair of orders
        shuffles = all_shuffles(a22)
        for variant in VARIANTS:
            for n in range(5):
                for shape in partitions(n):
                    recorders = enumerate_syt(shape)
                    for a in shuffles:
                        for p in enumerate_ssyt(shape, a22, a, variant):
                            for q in recorders:
                                word = reverse_word(p, q, a, variant)
                                for b in shuffles:
                                    expected = insert_word(word, b, variant).p
                                    assert change_shuffle(p, q, a, b, variant) == expected

    @pytest.mark.parametrize(
        "p,q,target",
        [
            ("t1 t2 u2 / u1", "1 2 / 3 4", "t1<t2<u1<u2"),  # shapes differ
            ("t1 t2 u2 / u1", "1 3 2 / 4", "t1<t2<u1<u2"),  # q not standard
            ("t2 t1 u2 / u1", "1 2 3 / 4", "t1<t2<u1<u2"),  # p not valid
        ],
    )
    def test_errors_match_reverse_then_insert(self, a22, order_ttuu, p, q, target):
        p, q = tab(p), rec(q)
        target = parse_shuffle(target, a22)
        with pytest.raises(ValueError) as composed:
            insert_word(reverse_word(p, q, order_ttuu, REGULAR_REGULAR), target, REGULAR_REGULAR)
        with pytest.raises(ValueError) as direct:
            change_shuffle(p, q, order_ttuu, target, REGULAR_REGULAR)
        assert str(direct.value) == str(composed.value)

    @pytest.mark.parametrize(
        "p,q,source,target",
        [
            # t2 is outside the target's alphabet
            ("t1 t2 u2 / u1", "1 2 3 / 4", ("t1<t2<u1<u2", 2, 2), ("t1<u1<u2", 1, 2)),
            # every letter is inside it, but the alphabets still differ
            ("u1 t1", "1 2", ("u1<t1", 1, 1), ("t1<u1<t2<u2", 2, 2)),
        ],
    )
    def test_refuses_a_target_over_another_alphabet(self, p, q, source, target):
        source, target = (parse_shuffle(chain, Alphabet(k, l)) for chain, k, l in (source, target))
        with pytest.raises(ValueError, match="^shuffles must share an alphabet$"):
            change_shuffle(tab(p), rec(q), source, target, REGULAR_REGULAR)


A22_TEXT = "(k=2, l=2)"
GUARD_CASES = [
    # (P, Q, the ValueError text) for a bad input to the reversal
    ("t1 t2 u2 / u1", "1 2 2 / 4", "recording tableau is not standard"),  # duplicate label
    ("t1 t2 u2 / u1", ((0, 1, 2), (3,)), "recording tableau is not standard"),  # label 0
    ("t1 t2 u2 / u1", "1 2 5 / 4", "recording tableau is not standard"),  # label above n
    ("t1 t2 u2 / u1", "1 3 2 / 4", "recording tableau is not standard"),  # row decreases
    ("t1 t2 u2 / u1", "2 3 4 / 1", "recording tableau is not standard"),  # column decreases
    ("t1 t2 u2 / u1", "1 2 / 3 4", "shape mismatch: (3, 1) vs (2, 2)"),
    ("t2 t1 u2 / u1", "1 2 3 / 4", "insertion tableau is not valid for this shuffle and variant"),
    ("t3", "1", f"letter t3 outside alphabet {A22_TEXT}"),  # a lone cell is valid
    ("t1 t3 / u1", "1 2 / 3", f"letter t3 is not in alphabet {A22_TEXT}"),
]


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
@pytest.mark.parametrize("p,q,text", GUARD_CASES)
class TestReversalGuardErrors:
    def pair(self, p, q):
        # a Q that the constructor would refuse (a label below 1, say) is built unchecked
        return tab(p), rec(q) if isinstance(q, str) else RecordingTableau._of(q)

    def test_reverse_word(self, order_ttuu, variant, p, q, text):
        p, q = self.pair(p, q)
        with pytest.raises(ValueError) as error:
            reverse_word(p, q, order_ttuu, variant)
        assert str(error.value) == text

    def test_change_shuffle(self, order_ttuu, order_uutt, variant, p, q, text):
        p, q = self.pair(p, q)
        with pytest.raises(ValueError) as error:
            change_shuffle(p, q, order_ttuu, order_uutt, variant)
        assert str(error.value) == text


class TestStandardizeU:
    def test_five_letter_example(self, a22, order_ttuu):
        word = parse_word("t2,u2,u1,u1,t1", a22)
        std = standardize_u(word, order_ttuu)
        assert str(std.word) == "t2,u3,u2,u1,t1"
        assert str(std.shuffle) == "t1<t2<u1<u2<u3"
        assert std.shuffle.alphabet == Alphabet(2, 3)
        back = dict(std.source_map)
        assert back == {u(1): u(1), u(2): u(1), u(3): u(2)}
        assert t(2) not in back

    def test_distinct_u_word_keeps_positions(self, a22, order_ttuu):
        word = parse_word("u2,t1,u1", a22)
        std = standardize_u(word, order_ttuu)
        # values renumbered by original order: u1 -> u1, u2 -> u2
        assert str(std.word) == "u2,t1,u1"
        assert str(std.shuffle) == "t1<t2<u1<u2"

    def test_no_u_word(self, a22, order_ttuu):
        word = parse_word("t1,t2", a22)
        std = standardize_u(word, order_ttuu)
        assert std.word == word
        assert str(std.shuffle) == "t1<t2"
        assert std.shuffle.alphabet == Alphabet(2, 0)

    def test_interleaved_order_blocks(self):
        alph = Alphabet(1, 2)
        order = parse_shuffle("u1<t1<u2", alph)
        word = parse_word("u1,u1,u2,u2", alph)
        std = standardize_u(word, order)
        assert str(std.word) == "u2,u1,u4,u3"
        assert str(std.shuffle) == "u1<u2<t1<u3<u4"

    def test_u_elements_pairwise_distinct(self, a22):
        for shuffle in all_shuffles(a22):
            for word in all_words(a22, 4):
                std = standardize_u(word, shuffle)
                us = [x for x in std.word if x.kind == "u"]
                assert len(us) == len(set(us))
                assert len(std.word) == len(word)
                # t-elements are untouched
                assert [x for x in std.word if x.kind == "t"] == [
                    x for x in word if x.kind == "t"
                ]


class TestStandardizeT:
    def test_small_example(self):
        alph = Alphabet(1, 1)
        order = parse_shuffle("t1<u1", alph)
        std = standardize_t(parse_word("t1,t1,u1", alph), order)
        assert str(std.word) == "t1,t2,u1"
        assert str(std.shuffle) == "t1<t2<u1"
        assert std.shuffle.alphabet == Alphabet(2, 1)

    def test_distinct_t_keeps_positions(self, a22, order_ttuu):
        std = standardize_t(parse_word("t2,u1,t1", a22), order_ttuu)
        assert str(std.word) == "t2,u1,t1"

    def test_no_t_word(self, a22, order_ttuu):
        word = parse_word("u1,u2", a22)
        std = standardize_t(word, order_ttuu)
        assert std.word == word
        assert str(std.shuffle) == "u1<u2"

    def test_t_elements_pairwise_distinct(self, a22):
        for shuffle in all_shuffles(a22):
            for word in all_words(a22, 4):
                std = standardize_t(word, shuffle)
                ts = [x for x in std.word if x.kind == "t"]
                assert len(ts) == len(set(ts))
                assert [x for x in std.word if x.kind == "u"] == [
                    x for x in word if x.kind == "u"
                ]


class TestLetterLevelReference:
    @pytest.mark.parametrize("k,l,n", [(2, 2, 4), (1, 3, 4), (3, 1, 4), (0, 2, 3), (2, 0, 3)])
    def test_both_sides_match_the_reference(self, k, l, n):
        # every word up to n letters, empty and one-kind words included
        alphabet = Alphabet(k, l)
        for s in all_shuffles(alphabet):
            for m in range(n + 1):
                for word in all_words(alphabet, m):
                    assert standardize_u(word, s) == standardize(word, s, "u")
                    assert standardize_t(word, s) == standardize(word, s, "t")

    def test_reference_on_the_worked_examples(self, a22, order_ttuu):
        alph = Alphabet(1, 1)
        std = standardize(parse_word("t1,t1,u1", alph), parse_shuffle("t1<u1", alph), "t")
        assert (str(std.word), str(std.shuffle)) == ("t1,t2,u1", "t1<t2<u1")
        std = standardize(parse_word("u2,u1,u2,u1", a22), order_ttuu, "u")
        assert (str(std.word), str(std.shuffle)) == ("u4,u2,u3,u1", "t1<t2<u1<u2<u3<u4")
        assert std.source_map == ((u(1), u(1)), (u(2), u(1)), (u(3), u(2)), (u(4), u(2)))

    @pytest.mark.parametrize("side", ["u", "t"])
    def test_a_foreign_letter_is_refused_as_the_reference_refuses_it(self, a22, order_ttuu, side):
        word = Word((u(1), t(3), u(5)))
        library = standardize_u if side == "u" else standardize_t
        with pytest.raises(ValueError) as expected:
            standardize(word, order_ttuu, side)
        with pytest.raises(ValueError) as refused:
            library(word, order_ttuu)
        assert str(refused.value) == str(expected.value) == "letter t3 outside alphabet (k=2, l=2)"


class TestStandardizationMimicry:
    def test_five_letter_example(self, a22, order_ttuu):
        word = parse_word("t2,u2,u1,u1,t1", a22)
        std = standardize_u(word, order_ttuu)
        original = insert_word(word, order_ttuu, REGULAR_DUAL)
        relabelled = insert_word(std.word, std.shuffle, REGULAR_DUAL)
        assert original.p == tab("t1 u1 u1 u2 / t2")
        assert relabelled.p == tab("t1 u1 u2 u3 / t2")
        assert unmap_tableau(std, relabelled.p) == original.p
        assert original.q == relabelled.q
        assert original.p.shape == relabelled.p.shape

    def test_exhaustive_small(self, a22):
        for shuffle in all_shuffles(a22):
            for word in all_words(a22, 3):
                assert check_standardization_mimicry(word, shuffle)


class TestDistinctURuleAgreement:
    def test_four_letter_example(self, a22):
        word = parse_word("u2,t1,t2,u1", a22)
        for shuffle in all_shuffles(a22):
            reg = insert_word(word, shuffle, REGULAR_REGULAR)
            dual = insert_word(word, shuffle, REGULAR_DUAL)
            assert reg.p == dual.p and reg.q == dual.q

    def test_no_u_word(self, a22, order_ttuu):
        word = parse_word("t1,t1,t2", a22)
        reg = insert_word(word, order_ttuu, REGULAR_REGULAR)
        dual = insert_word(word, order_ttuu, REGULAR_DUAL)
        assert reg.p == dual.p and reg.q == dual.q
