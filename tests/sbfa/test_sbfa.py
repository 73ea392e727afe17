"""SBFAs: Theorem 7.2 (language correctness) and the forward/backward
acceptance agreement."""

from hypothesis import given, settings

from repro.reference.sbfa import boolstate as B
from repro.reference.sbfa.sbfa import delta_plus, from_regex
from repro.regex import parse
from repro.regex.semantics import Matcher, enumerate_strings
from tests.conftest import ALPHABET
from tests.strategies import b_re_regexes, extended_regexes


def test_theorem_7_2(bitset_builder):
    """L(SBFA(R)) = L(R)."""
    b = bitset_builder
    matcher = Matcher(b.algebra)

    @settings(max_examples=60, deadline=None)
    @given(extended_regexes(b))
    def check(r):
        sbfa = from_regex(b, r)
        for s in enumerate_strings(ALPHABET, 3):
            assert sbfa.accepts(s) == matcher.matches(r, s)

    check()


def test_forward_backward_agree(bitset_builder):
    b = bitset_builder

    @settings(max_examples=40, deadline=None)
    @given(b_re_regexes(b))
    def check(r):
        sbfa = from_regex(b, r)
        for s in enumerate_strings(ALPHABET, 3):
            assert sbfa.accepts(s) == sbfa.accepts_backward(s)

    check()


def test_delta_plus_examples(bitset_builder):
    """The paper's delta+ examples: delta+(b(ab)*) includes the start,
    delta+(ab) does not."""
    b = bitset_builder
    r1 = parse(b, "b(ab)*")
    dp1 = delta_plus(b, r1)
    assert r1 in dp1
    assert parse(b, "(ab)*") in dp1

    r2 = parse(b, "ab")
    dp2 = delta_plus(b, r2)
    assert r2 not in dp2
    assert b.char("b") in dp2
    assert b.epsilon in dp2


def test_states_include_r_bottom_full(bitset_builder):
    b = bitset_builder
    r = parse(b, "a0*")
    sbfa = from_regex(b, r)
    assert {r, b.empty, b.full} <= sbfa.states


def test_bottom_self_loop(bitset_builder):
    b = bitset_builder
    sbfa = from_regex(b, parse(b, "ab"))
    assert sbfa.tr_apply(sbfa.delta[b.empty], "a") == B.FALSE


def test_finals_are_nullable_states(bitset_builder):
    b = bitset_builder
    sbfa = from_regex(b, parse(b, "a*b"))
    for q in sbfa.states:
        assert (q in sbfa.finals) == q.nullable


def test_nu_lifting(bitset_builder):
    b = bitset_builder
    sbfa = from_regex(b, parse(b, "a*&~(b)"))
    full, empty = b.full, b.empty
    assert sbfa.nu(B.st(full))
    assert not sbfa.nu(B.st(empty))
    assert sbfa.nu(B.conj(B.st(full), B.neg(B.st(empty))))


def test_guards_extracted_from_regex(bitset_builder):
    b = bitset_builder
    sbfa = from_regex(b, parse(b, "[ab]*0"))
    assert b.algebra.from_chars("ab") in sbfa.guards()
    assert b.algebra.from_char("0") in sbfa.guards()
