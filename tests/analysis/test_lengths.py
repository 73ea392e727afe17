"""Structural length bounds against language enumeration."""

from hypothesis import given, settings

from repro.analysis.lengths import (
    NO_MEMBER, UNBOUNDED, structural_max, structural_min,
)
from repro.regex import parse
from repro.regex.semantics import Matcher, enumerate_strings
from tests.conftest import ALPHABET
from tests.strategies import extended_regexes, standard_regexes


def brute_lengths(matcher, regex, horizon=5):
    lengths = [
        len(s) for s in enumerate_strings(ALPHABET, horizon)
        if matcher.matches(regex, s)
    ]
    return (min(lengths), max(lengths)) if lengths else (None, None)


class TestStructural:
    def test_exact_on_standard(self, bitset_builder):
        matcher = Matcher(bitset_builder.algebra)

        @settings(max_examples=120, deadline=None)
        @given(standard_regexes(bitset_builder))
        def check(r):
            lo, hi = brute_lengths(matcher, r)
            smin, smax = structural_min(r), structural_max(r)
            if lo is None:
                # nothing short exists; the bound must allow that
                assert smin is NO_MEMBER or smin > 0 or not r.nullable
                return
            assert smin == lo  # exact lower end on RE
            if smax is not UNBOUNDED:
                assert smax >= hi

        check()

    def test_bounds_safe_on_ere(self, bitset_builder):
        matcher = Matcher(bitset_builder.algebra)

        @settings(max_examples=120, deadline=None)
        @given(extended_regexes(bitset_builder))
        def check(r):
            lo, _ = brute_lengths(matcher, r)
            smin = structural_min(r)
            smax = structural_max(r)
            if lo is not None:
                assert smin is not NO_MEMBER and smin <= lo
                if smax is not UNBOUNDED and smax is not NO_MEMBER:
                    assert smax >= lo

        check()

    def test_known_values(self, bitset_builder):
        b = bitset_builder
        assert structural_min(parse(b, "a{3,7}b?")) == 3
        assert structural_max(parse(b, "a{3,7}b?")) == 8
        assert structural_min(b.empty) is NO_MEMBER
        assert structural_max(parse(b, "a*")) is UNBOUNDED
        assert structural_min(parse(b, "~(a*)")) == 1
        assert structural_min(parse(b, "~(ab)")) == 0
        assert structural_max(parse(b, "(a|b){2}&.{0,9}")) == 2
