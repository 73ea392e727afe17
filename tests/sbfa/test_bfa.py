"""Proposition 8.1: SBFAs over a finite alphabet are classical BFAs."""

from hypothesis import given, settings

from repro.reference.sbfa.bfa import from_sbfa
from repro.reference.sbfa.sbfa import from_regex
from repro.regex import parse
from repro.regex.semantics import Matcher, enumerate_strings
from tests.conftest import ALPHABET
from tests.strategies import b_re_regexes


def test_proposition_8_1(bitset_builder):
    b = bitset_builder
    matcher = Matcher(b.algebra)

    @settings(max_examples=40, deadline=None)
    @given(b_re_regexes(b, max_leaves=4))
    def check(r):
        bfa = from_sbfa(from_regex(b, r), ALPHABET)
        for s in enumerate_strings(ALPHABET, 3):
            assert bfa.accepts(s) == matcher.matches(r, s)

    check()


def test_backward_evaluation_matches_forward(bitset_builder):
    b = bitset_builder
    bfa = from_sbfa(from_regex(b, parse(b, "(.*0.*)&~(.*01.*)")), ALPHABET)
    for s in enumerate_strings(ALPHABET, 4):
        assert bfa.accepts(s) == bfa.accepts_backward(s)


def test_table_is_total(bitset_builder):
    b = bitset_builder
    bfa = from_sbfa(from_regex(b, parse(b, "a|b0")), ALPHABET)
    for q in bfa.states:
        for ch in ALPHABET:
            assert (q, ch) in bfa.table


def test_out_of_alphabet_rejected(bitset_builder):
    b = bitset_builder
    bfa = from_sbfa(from_regex(b, parse(b, "a*")), "ab")
    assert not bfa.accepts("a0")
    assert not bfa.accepts_backward("a0")
