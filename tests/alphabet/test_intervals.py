"""Interval algebra: CharSet canonicalization and Boolean-algebra laws."""

import pytest
from hypothesis import given, strategies as st

from repro.alphabet.intervals import (
    BMP_MAX, CharSet, IntervalAlgebra, _complement, _intersection, _pick,
    _union,
)
from repro.errors import AlgebraError

MAX = 255


@pytest.fixture
def alg():
    return IntervalAlgebra(MAX)


range_sets = st.lists(
    st.tuples(st.integers(0, MAX), st.integers(0, MAX)).map(
        lambda t: (min(t), max(t))
    ),
    max_size=5,
)


def to_set(charset):
    return set(charset)


class TestCharSet:
    def test_normalize_merges_adjacent(self):
        cs = CharSet.normalize([(5, 9), (10, 12)])
        assert cs.ranges == ((5, 12),)

    def test_normalize_merges_overlap(self):
        cs = CharSet.normalize([(1, 8), (4, 12), (20, 22)])
        assert cs.ranges == ((1, 12), (20, 22))

    def test_normalize_drops_empty_pairs(self):
        assert CharSet.normalize([(5, 4)]).ranges == ()

    def test_contains_binary_search(self):
        cs = CharSet.normalize([(10, 20), (30, 40), (50, 60)])
        for code in (10, 20, 35, 60):
            assert code in cs
        for code in (9, 21, 29, 61, 0):
            assert code not in cs

    def test_len_and_iter(self):
        cs = CharSet.normalize([(0, 2), (5, 5)])
        assert len(cs) == 4
        assert list(cs) == [0, 1, 2, 5]

    def test_min_of_empty_raises(self):
        with pytest.raises(AlgebraError):
            CharSet(()).min()

    @given(range_sets)
    def test_normalization_is_canonical(self, pairs):
        a = CharSet.normalize(pairs)
        b = CharSet.normalize(list(reversed(pairs)))
        assert a == b and hash(a) == hash(b)

    @given(range_sets)
    def test_ranges_disjoint_sorted_nonadjacent(self, pairs):
        cs = CharSet.normalize(pairs)
        for (lo1, hi1), (lo2, hi2) in zip(cs.ranges, cs.ranges[1:]):
            assert hi1 + 1 < lo2


class TestAlgebraLaws:
    @given(range_sets, range_sets)
    def test_union_denotation(self, p1, p2):
        alg = IntervalAlgebra(MAX)
        a, b = alg.from_ranges(p1), alg.from_ranges(p2)
        assert to_set(alg.disj(a, b)) == to_set(a) | to_set(b)

    @given(range_sets, range_sets)
    def test_intersection_denotation(self, p1, p2):
        alg = IntervalAlgebra(MAX)
        a, b = alg.from_ranges(p1), alg.from_ranges(p2)
        assert to_set(alg.conj(a, b)) == to_set(a) & to_set(b)

    @given(range_sets)
    def test_complement_involution(self, pairs):
        alg = IntervalAlgebra(MAX)
        a = alg.from_ranges(pairs)
        assert alg.neg(alg.neg(a)) == a

    @given(range_sets, range_sets)
    def test_de_morgan(self, p1, p2):
        alg = IntervalAlgebra(MAX)
        a, b = alg.from_ranges(p1), alg.from_ranges(p2)
        assert alg.neg(alg.conj(a, b)) == alg.disj(alg.neg(a), alg.neg(b))

    @given(range_sets)
    def test_extensionality(self, pairs):
        alg = IntervalAlgebra(MAX)
        a = alg.from_ranges(pairs)
        rebuilt = alg.from_ranges([(c, c) for c in a])
        assert rebuilt == a

    def test_top_bottom(self, alg):
        assert alg.is_valid(alg.top)
        assert not alg.is_sat(alg.bot)
        assert alg.neg(alg.top) == alg.bot

    def test_implies(self, alg):
        small = alg.from_ranges([(10, 20)])
        big = alg.from_ranges([(0, 30)])
        assert alg.implies(small, big)
        assert not alg.implies(big, small)

    def test_count(self, alg):
        assert alg.count(alg.from_ranges([(0, 9), (20, 20)])) == 11

    def test_diff_xor(self, alg):
        a = alg.from_ranges([(0, 10)])
        b = alg.from_ranges([(5, 15)])
        assert to_set(alg.diff(a, b)) == set(range(0, 5))


class TestPickAndMembership:
    def test_pick_prefers_printable(self, alg):
        phi = alg.from_ranges([(0, 5), (0x41, 0x42)])
        assert alg.pick(phi) == "A"

    def test_pick_falls_back_to_minimum(self, alg):
        phi = alg.from_ranges([(1, 3)])
        assert alg.pick(phi) == "\x01"

    def test_pick_empty_raises(self, alg):
        with pytest.raises(AlgebraError):
            alg.pick(alg.bot)

    def test_member_out_of_domain_is_clean_non_match(self, alg):
        # out-of-domain characters are in no predicate's denotation:
        # a non-match, never an AlgebraError
        assert alg.member(chr(300), alg.top) is False
        assert alg.in_domain(chr(300)) is False
        assert alg.in_domain(chr(255)) is True

    def test_from_char_string_and_int(self, alg):
        assert alg.from_char("a") == alg.from_char(0x61)

    def test_from_chars(self, alg):
        phi = alg.from_chars("abc")
        assert alg.count(phi) == 3
        assert alg.member("b", phi)

    def test_domain_clamps_ranges(self):
        alg = IntervalAlgebra(0x7F)
        phi = alg.from_ranges([(0x70, 0x200)])
        assert to_set(phi) == set(range(0x70, 0x80))

    def test_from_chars_rejects_out_of_domain(self):
        # it used to keep chr(300) in a 0x7F domain: neg(neg(p)) lost it,
        # p | ~p was not valid, and pick answered outside the domain
        alg = IntervalAlgebra(0x7F)
        for chars in (["a", chr(300)], [chr(300)]):
            with pytest.raises(AlgebraError):
                alg.from_chars(chars)
        p = alg.from_chars(["a", chr(0x7F)])
        assert alg.neg(alg.neg(p)) == p
        assert alg.is_valid(alg.disj(p, alg.neg(p)))
        assert alg.pick(alg.from_chars([chr(0x7F)])) == chr(0x7F)


SMALL = 40

small_range_sets = st.lists(
    st.tuples(st.integers(0, SMALL), st.integers(0, SMALL)).map(
        lambda t: (min(t), max(t))
    ),
    max_size=4,
)

#: a range bound as ``from_ranges`` may receive one: negative, past the
#: domain, or a one-character string
loose_bounds = st.one_of(
    st.integers(-10, SMALL + 10), st.integers(0, SMALL + 10).map(chr),
)


class TestCanonicalCaches:
    """The unique table and operation caches change no result: every
    cached operation equals the uncached module function (the oracle)
    and Python set semantics, equal sets are one object, and clearing
    the caches changes nothing but identity."""

    @given(st.lists(small_range_sets, min_size=2, max_size=5))
    def test_cached_operations_match_oracle(self, range_lists):
        alg = IntervalAlgebra(SMALL)
        domain = set(range(SMALL + 1))
        preds = [alg.from_ranges(pairs) for pairs in range_lists]

        def check_all():
            results = []
            for a in preds:
                neg = alg.neg(a)
                assert neg == _complement(a, SMALL)
                assert to_set(neg) == domain - to_set(a)
                assert alg.neg(a) is neg
                if a:
                    assert alg.pick(a) == _pick(a)
                    assert ord(alg.pick(a)) in to_set(a)
                for b in preds:
                    conj = alg.conj(a, b)
                    disj = alg.disj(a, b)
                    diff = alg.diff(a, b)
                    assert conj == _intersection(a, b)
                    assert disj == _union(a, b)
                    assert diff == _intersection(a, _complement(b, SMALL))
                    assert to_set(conj) == to_set(a) & to_set(b)
                    assert to_set(disj) == to_set(a) | to_set(b)
                    assert to_set(diff) == to_set(a) - to_set(b)
                    assert alg.conj(a, b) is conj and alg.disj(a, b) is disj
                    assert alg.conj(b, a) is conj and alg.disj(b, a) is disj
                    results.append((conj, disj, diff))
            return results

        before = check_all()
        alg.clear_caches()
        assert alg.cache_entries() == 0
        assert check_all() == before

    @given(small_range_sets, small_range_sets)
    def test_equal_sets_are_one_object(self, pairs, other_pairs):
        alg = IntervalAlgebra(SMALL)
        a = alg.from_ranges(pairs)
        b = alg.from_ranges(other_pairs)
        assert alg.from_ranges(list(reversed(pairs))) is a
        assert alg.from_chars([chr(c) for c in a]) is a
        assert alg.neg(alg.neg(a)) is a
        assert alg.conj(a, alg.top) is a and alg.disj(a, alg.bot) is a
        for result in (alg.conj(a, b), alg.disj(a, b), alg.diff(a, b)):
            assert alg.from_ranges(result.ranges) is result
        if not a:
            assert a is alg.bot
        if to_set(a) == set(range(SMALL + 1)):
            assert a is alg.top

    @given(st.lists(st.tuples(loose_bounds, loose_bounds), max_size=6))
    def test_from_ranges_normalizes_clipped_pairs(self, pairs):
        # arbitrary pairs: unsorted, overlapping, adjacent, empty,
        # negative, past max_code, one-character string bounds
        alg = IntervalAlgebra(SMALL)
        codes = [[ord(b) if isinstance(b, str) else b for b in pair]
                 for pair in pairs]
        expected = CharSet.normalize(
            (max(lo, 0), min(hi, SMALL)) for lo, hi in codes
        )
        result = alg.from_ranges(pairs)
        assert result == expected
        assert alg.from_ranges(pairs) is result
        assert alg.from_ranges(result.ranges) is result

    def test_counters_count_requests_not_misses(self):
        alg = IntervalAlgebra(SMALL)
        a = alg.from_ranges([(1, 5)])
        b = alg.from_ranges([(3, 9)])
        for rounds in (1, 2):  # the second round is all cache hits
            alg.conj(a, b)
            alg.disj(a, b)
            alg.neg(a)
            alg.is_sat(a)
            alg.is_valid(b)
            assert alg.op_count == 3 * rounds
            assert alg.sat_check_count == 2 * rounds
        assert alg.cache_entries() > 0

    def test_foreign_and_stale_sets_stay_equal(self):
        alg = IntervalAlgebra(SMALL)
        a = alg.from_ranges([(1, 5)])
        alg.clear_caches()
        fresh = alg.from_ranges([(1, 5)])
        assert fresh == a and hash(fresh) == hash(a) and fresh is not a
        assert alg.neg(a) is alg.neg(fresh)
        foreign = CharSet(((1, 5),))
        assert alg.conj(foreign, alg.from_ranges([(4, 9)])).ranges == ((4, 5),)
        assert alg.bot is alg.from_ranges([]) and alg.top is alg.neg(alg.bot)


def test_bmp_default_domain():
    alg = IntervalAlgebra()
    assert alg.max_code == BMP_MAX
    assert alg.count(alg.top) == BMP_MAX + 1
