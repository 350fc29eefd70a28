import pickle
from copy import deepcopy
from itertools import combinations, product
from math import comb

import pytest

from oracles import order_adjacent_pairs
from superrsk import (
    REGULAR_REGULAR,
    Alphabet,
    Letter,
    Tableau,
    Word,
    adjacent_transposition,
    all_shuffles,
    insert_word,
    kl_shuffle,
    parse_letter,
    parse_shuffle,
    t,
    u,
)
from superrsk.alphabet import Shuffle, shuffle_to_json


def small_alphabets(max_size):
    for k in range(0, max_size + 1):
        for l in range(0, max_size + 1 - k):
            if k + l > 0:
                yield Alphabet(k, l)


class TestLetter:
    def test_construction_and_name(self):
        assert t(3).name == "t3"
        assert u(1).name == "u1"
        assert str(u(12)) == "u12"

    def test_rejects_bad_kind_and_index(self):
        with pytest.raises(ValueError):
            Letter("v", 1)
        with pytest.raises(ValueError):
            Letter("t", 0)

    @pytest.mark.parametrize("index", [1.5, 2.0, True, "1", None])
    def test_rejects_a_non_integer_index(self, index):
        with pytest.raises(ValueError, match="letter index must be an integer"):
            Letter("t", index)

    def test_equal_letters_hash_equal_and_key_apart(self):
        letters = Alphabet(5, 5).letters()
        for x in letters:
            twin = Letter(x.kind, x.index)
            assert twin == x and hash(twin) == hash(x) and twin is not x
        keys = {x: r for r, x in enumerate(letters)}
        assert len(keys) == 10
        assert [keys[Letter(x.kind, x.index)] for x in letters] == list(range(10))

    def test_text_forms(self):
        assert (t(1).name, str(t(1)), repr(t(1))) == ("t1", "t1", "Letter(kind='t', index=1)")
        assert repr(u(12)) == "Letter(kind='u', index=12)"
        assert (u(12).kind, u(12).index) == ("u", 12)

    @pytest.mark.parametrize("copy_of", [lambda x: pickle.loads(pickle.dumps(x)), deepcopy])
    def test_pickle_and_deepcopy_round_trip(self, copy_of):
        for x in (t(1), u(3)):
            back = copy_of(x)
            assert back == x and type(back) is Letter and back.name == x.name

    @pytest.mark.parametrize("kind,index", [("t", True), ("t", 1.0), ("v", 1), ("t", 0)])
    def test_still_refused(self, kind, index):
        with pytest.raises(ValueError):
            Letter(kind, index)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: t(1)._replace(index=0),
            lambda: u(2)._replace(kind="v"),
            lambda: t(1)._replace(index=True),
            lambda: Letter._make(("v", 1)),
            lambda: Letter._make(("t", 0)),
        ],
    )
    def test_make_and_replace_run_the_checks(self, build):
        with pytest.raises(ValueError):
            build()

    def test_make_and_replace_still_build_letters(self):
        assert t(1)._replace(index=3) == t(3) and type(t(1)._replace(index=3)) is Letter
        assert Letter._make(("u", 2)) == u(2) and type(Letter._make(("u", 2))) is Letter

    @pytest.mark.parametrize("entry", [("t", 1), ["t", 1], "t1", None, 1], ids=repr)
    def test_words_tableaux_and_shuffles_refuse_what_is_not_a_letter(self, entry):
        with pytest.raises(ValueError, match=r"^word entries must be letters, got "):
            Word((t(1), entry))
        with pytest.raises(ValueError, match=r"^tableau entries must be letters, got "):
            Tableau(((t(1), u(1)), (entry,)))
        # a plain tuple hashes as its letter, so the set of letters alone passes it
        with pytest.raises(ValueError, match=r"^shuffle entries must be letters, got "):
            Shuffle(Alphabet(1, 1), (entry, u(1)))

    def test_a_plain_tuple_word_is_not_inserted(self):
        shuffle = all_shuffles(Alphabet(2, 2))[0]
        with pytest.raises(ValueError, match=r"^word entries must be letters, got \('t', 1\)$"):
            insert_word(Word((("t", 1), ("u", 2))), shuffle, REGULAR_REGULAR)

    def test_words_and_shuffles_compare_and_hash_by_letters(self):
        a = Word((t(1), u(2), t(1)))
        b = Word((Letter("t", 1), Letter("u", 2), Letter("t", 1)))
        assert a == b and hash(a) == hash(b) and a != Word((t(1), u(2)))
        alph = Alphabet(3, 3)
        shuffles = all_shuffles(alph)
        assert len(set(shuffles)) == len(shuffles) == 20
        for s in shuffles:
            again = parse_shuffle(str(s), alph)
            assert again == s and hash(again) == hash(s)

    def test_parse_round_trip(self):
        assert parse_letter("t2") == t(2)
        assert parse_letter(" u10 ") == u(10)
        for bad in ("", "t", "x1", "t01", "t1u2", "1t"):
            with pytest.raises(ValueError):
                parse_letter(bad)


class TestAlphabet:
    def test_letters_order(self):
        assert Alphabet(2, 1).letters() == (t(1), t(2), u(1))

    def test_membership(self):
        alph = Alphabet(2, 1)
        assert t(2) in alph and u(1) in alph
        assert t(3) not in alph and u(2) not in alph

    @pytest.mark.parametrize(
        "item", ["t1", ("t", 1), ["t", 1], None, 1, "u"],
        ids=["str", "tuple", "list", "None", "int", "kind"],
    )
    def test_only_a_letter_is_a_member(self, item):
        assert item not in Alphabet(2, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet(0, 0)

    @pytest.mark.parametrize(
        "k,l", [(2.0, 1), (1, 2.5), (True, 1), (1, False), ("2", 1), (None, 1)]
    )
    def test_rejects_non_integer_sizes(self, k, l):
        with pytest.raises(ValueError, match="alphabet sizes must be integers"):
            Alphabet(k, l)


class TestAllShuffles:
    def test_one_of_each_kind(self):
        shuffles = all_shuffles(Alphabet(1, 1))
        assert [str(s) for s in shuffles] == ["t1<u1", "u1<t1"]

    def test_two_of_each_kind_count(self):
        assert len(all_shuffles(Alphabet(2, 2))) == 6

    def test_pure_u_is_forced(self):
        shuffles = all_shuffles(Alphabet(0, 2))
        assert [str(s) for s in shuffles] == ["u1<u2"]

    def test_counts_match_binomials(self):
        # brute-force oracle: number of valid interleavings is C(k+l, k)
        for alph in small_alphabets(8):
            shuffles = all_shuffles(alph)
            assert len(shuffles) == comb(alph.size, alph.k)
            assert len(set(shuffles)) == len(shuffles)

    def test_every_shuffle_respects_both_chains(self):
        for alph in small_alphabets(5):
            for s in all_shuffles(alph):
                for kind in ("t", "u"):
                    indices = [x.index for x in s.order if x.kind == kind]
                    assert indices == sorted(indices)

    def test_canonical_order_is_t_pattern_lex(self):
        patterns = ["".join(x.kind for x in s.order) for s in all_shuffles(Alphabet(2, 2))]
        assert patterns == sorted(patterns)


class TestKlShuffle:
    def test_two_two(self):
        assert str(kl_shuffle(Alphabet(2, 2))) == "t1<t2<u1<u2"

    def test_singletons(self):
        assert str(kl_shuffle(Alphabet(1, 0))) == "t1"
        assert str(kl_shuffle(Alphabet(0, 1))) == "u1"


class TestLess:
    def test_examples(self, a22):
        A = parse_shuffle("t1<t2<u1<u2", a22)
        B = parse_shuffle("u1<u2<t1<t2", a22)
        assert A.less(t(2), u(1))
        assert B.less(u(2), t(1))
        assert not A.less(t(1), t(1))
        assert not A.less(u(2), t(1)) and A.less(t(1), u(2))

    def test_letter_outside_alphabet(self, a22):
        A = kl_shuffle(a22)
        with pytest.raises(ValueError):
            A.less(t(3), u(1))

    @pytest.mark.parametrize("entry", [("t", 1), ["t", 1], "t1", None, 1], ids=repr)
    def test_rank_refuses_what_is_not_a_letter(self, a22, entry):
        shuffle = all_shuffles(a22)[0]
        assert shuffle.rank(t(1)) == 0
        with pytest.raises(ValueError, match=r"^rank arguments must be letters, got "):
            shuffle.rank(entry)
        with pytest.raises(ValueError, match=r"^rank arguments must be letters, got "):
            shuffle.less(t(1), entry)

    def test_total_order_axioms_exhaustively(self):
        for alph in small_alphabets(4):
            for s in all_shuffles(alph):
                letters = alph.letters()
                for a, b in product(letters, repeat=2):
                    # trichotomy: exactly one of a < b, a == b, b < a
                    assert s.less(a, b) + (a == b) + s.less(b, a) == 1
                for a, b, c in product(letters, repeat=3):
                    if s.less(a, b) and s.less(b, c):
                        assert s.less(a, c)


class TestAdjacentTransposition:
    def test_known_adjacent_pair(self):
        alph = Alphabet(3, 2)
        A = parse_shuffle("t1<u1<t2<u2<t3", alph)
        B = parse_shuffle("t1<u1<u2<t2<t3", alph)
        assert adjacent_transposition(A, B) == (t(2), u(2))
        assert adjacent_transposition(B, A) == (t(2), u(2))

    def test_identical_orders(self, a22, order_ttuu):
        assert adjacent_transposition(order_ttuu, order_ttuu) is None

    def test_many_flipped_pairs(self, order_ttuu, order_uutt):
        # oracle: all four (t, u) pairs change relative order
        flips = sum(
            order_ttuu.less(t(i), u(j)) != order_uutt.less(t(i), u(j))
            for i in (1, 2)
            for j in (1, 2)
        )
        assert flips == 4
        assert adjacent_transposition(order_ttuu, order_uutt) is None

    def test_symmetry_over_all_pairs(self):
        for alph in small_alphabets(5):
            shuffles = all_shuffles(alph)
            for a, b in combinations(shuffles, 2):
                assert adjacent_transposition(a, b) == adjacent_transposition(b, a)

    def test_mismatched_alphabets(self):
        with pytest.raises(ValueError):
            adjacent_transposition(kl_shuffle(Alphabet(1, 1)), kl_shuffle(Alphabet(2, 1)))

    @pytest.mark.parametrize("k,l", [(2, 2), (3, 2), (3, 3)])
    def test_matches_all_pairs_definition(self, k, l):
        shuffles = all_shuffles(Alphabet(k, l))
        outcomes = {"equal": 0, "adjacent": 0, "none": 0}
        for a, b in product(shuffles, repeat=2):
            expected = flipped_pair(a, b)
            assert adjacent_transposition(a, b) == expected
            assert adjacent_transposition(b, a) == expected
            kind = "equal" if a == b else "adjacent" if expected else "none"
            outcomes[kind] += 1
        assert outcomes["equal"] == len(shuffles)
        # each adjacent pair is met in both orders; k*l/(k+l) swaps per shuffle on average
        assert outcomes["adjacent"] == 2 * comb(k + l - 1, k - 1) * l
        assert outcomes["none"] > 0
        with pytest.raises(ValueError, match="share an alphabet"):
            adjacent_transposition(shuffles[0], kl_shuffle(Alphabet(k, l + 1)))


def flipped_pair(a, b):
    """The all-pairs definition: the one (t_i, u_j) ordered oppositely, if only one is."""
    if a.alphabet != b.alphabet:
        raise ValueError("shuffles must share an alphabet")
    flipped = [
        (t(i), u(j))
        for i in range(1, a.alphabet.k + 1)
        for j in range(1, a.alphabet.l + 1)
        if a.less(t(i), u(j)) != b.less(t(i), u(j))
    ]
    return flipped[0] if len(flipped) == 1 else None


class TestParseFormat:
    def test_known_chain(self):
        alph = Alphabet(3, 2)
        s = parse_shuffle("t1<u1<t2<u2<t3", alph)
        assert s.order == (t(1), u(1), t(2), u(2), t(3))

    def test_round_trip_everywhere(self):
        for alph in small_alphabets(4):
            for s in all_shuffles(alph):
                assert parse_shuffle(str(s), alph) == s

    def test_single_letter(self):
        assert str(parse_shuffle("t1", Alphabet(1, 0))) == "t1"

    def test_chain_violation(self):
        with pytest.raises(ValueError):
            parse_shuffle("t2<t1", Alphabet(2, 0))

    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            parse_shuffle("t1<u3", Alphabet(1, 1))

    def test_duplicate_letter(self):
        with pytest.raises(ValueError):
            parse_shuffle("t1<t1", Alphabet(1, 1))

    def test_missing_letter(self):
        with pytest.raises(ValueError):
            parse_shuffle("t1<u1", Alphabet(2, 1))

    def test_direct_constructor_validates(self):
        with pytest.raises(ValueError):
            Shuffle(Alphabet(2, 0), (t(2), t(1)))

    @pytest.mark.parametrize("order", [5, None], ids=repr)
    def test_non_iterable_order_refused(self, order):
        with pytest.raises(ValueError, match=r"^shuffle order must be iterable, got "):
            Shuffle(Alphabet(1, 1), order)

    def test_non_alphabet_refused(self):
        with pytest.raises(ValueError, match=r"^shuffle alphabet must be an Alphabet, got \(1, 1\)$"):
            Shuffle((1, 1), (t(1), u(1)))


class TestOrderAdjacentPairs:
    def test_interleaved(self):
        alph = Alphabet(3, 2)
        s = parse_shuffle("t1<u1<t2<u2<t3", alph)
        assert order_adjacent_pairs(s) == [
            (t(1), u(1)),
            (t(2), u(1)),
            (t(2), u(2)),
            (t(3), u(2)),
        ]

    def test_pure_chain_has_none(self):
        assert order_adjacent_pairs(kl_shuffle(Alphabet(0, 3))) == []

    def test_one_pair_per_adjacent_shuffle(self):
        # each pair of neighbouring mixed letters is the one pair that
        # exactly one adjacent shuffle inverts
        for alph in small_alphabets(4):
            shuffles = all_shuffles(alph)
            for s in shuffles:
                pairs = order_adjacent_pairs(s)
                inverted = [adjacent_transposition(s, b) for b in shuffles]
                inverted = [pair for pair in inverted if pair is not None]
                assert len(set(pairs)) == len(pairs) == len(inverted)
                assert set(pairs) == set(inverted)


class TestJson:
    def test_round_trip(self, a22, order_ttuu):
        data = shuffle_to_json(order_ttuu)
        assert data == ["t1", "t2", "u1", "u2"]
        assert parse_shuffle("<".join(data), a22) == order_ttuu
