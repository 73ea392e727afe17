"""Antimirov linear forms and partial derivatives."""

import pytest
from hypothesis import given, settings

from repro.derivatives.antimirov import (
    linear_form, matches, partial_derivatives, reachable_states,
)
from repro.derivatives.brzozowski import brzozowski
from repro.errors import BudgetExceeded, UnsupportedError
from repro.regex import parse
from repro.regex.semantics import Matcher, enumerate_strings
from tests.conftest import ALPHABET
from tests.strategies import short_strings, standard_regexes


def lang(matcher, regex, max_len=3):
    return frozenset(
        s for s in enumerate_strings(ALPHABET, max_len)
        if matcher.matches(regex, s)
    )


def test_union_of_partial_derivatives_is_brzozowski(bitset_builder):
    """∂_a(R) unioned equals D_a(R) (as languages)."""
    b = bitset_builder
    matcher = Matcher(b.algebra)

    @settings(max_examples=120, deadline=None)
    @given(standard_regexes(b))
    def check(r):
        for ch in ALPHABET:
            parts = partial_derivatives(b, r, ch)
            union = b.union(list(parts))
            assert lang(matcher, union) == lang(matcher, brzozowski(b, r, ch))

    check()


def test_matching_agrees_with_oracle(bitset_builder):
    b = bitset_builder
    matcher = Matcher(b.algebra)

    @settings(max_examples=120, deadline=None)
    @given(standard_regexes(b), short_strings(4))
    def check(r, s):
        assert matches(b, r, s) == matcher.matches(r, s)

    check()


def test_linear_form_guards_satisfiable(bitset_builder):
    b = bitset_builder

    @settings(max_examples=100, deadline=None)
    @given(standard_regexes(b))
    def check(r):
        for phi, _ in linear_form(b, r):
            assert b.algebra.is_sat(phi)

    check()


def test_intersection_product_rule(bitset_builder):
    b = bitset_builder
    r = b.inter([parse(b, ".*a.*"), parse(b, ".*b.*")])
    pairs = linear_form(b, r)
    assert pairs  # product of the two linear forms
    matcher = Matcher(b.algebra)
    for ch in ALPHABET:
        union = b.union(sorted(
            (t for phi, t in pairs if b.algebra.member(ch, phi)),
            key=lambda x: x.uid,
        ))
        assert lang(matcher, union) == lang(matcher, brzozowski(b, r, ch))


def test_complement_unsupported(bitset_builder):
    b = bitset_builder
    with pytest.raises(UnsupportedError):
        linear_form(b, b.compl(parse(b, "ab")))


def test_reachable_states_linear_for_standard(bitset_builder):
    """The Antimirov state space of a standard regex stays small
    (linear in the regex size)."""
    b = bitset_builder
    r = parse(b, "(a|b)*0(a|b)(a|b)(a|b)")
    states = reachable_states(b, r)
    assert len(states) <= r.size()


def test_reachable_states_limit(bitset_builder):
    b = bitset_builder
    r = parse(b, "(a|b)*0.{8}")
    with pytest.raises(BudgetExceeded):
        reachable_states(b, r, limit=2)
