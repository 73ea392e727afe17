"""Boolean operations on SBFAs: constant-time and correct."""

import pytest
from hypothesis import given, settings

from repro.reference.sbfa import boolstate as B
from repro.reference.sbfa import ops
from repro.reference.sbfa.sbfa import from_regex
from repro.regex import parse
from repro.regex.semantics import Matcher, enumerate_strings
from tests.conftest import ALPHABET
from tests.strategies import b_re_regexes


def test_union_inter_complement_semantics(bitset_builder):
    b = bitset_builder
    matcher = Matcher(b.algebra)

    @settings(max_examples=40, deadline=None)
    @given(b_re_regexes(b, max_leaves=4), b_re_regexes(b, max_leaves=4))
    def check(r, s):
        m, n = from_regex(b, r), from_regex(b, s)
        u = ops.union(m, n)
        i = ops.inter(m, n)
        c = ops.complement(m)
        for w in enumerate_strings(ALPHABET, 3):
            in_r, in_s = matcher.matches(r, w), matcher.matches(s, w)
            assert u.accepts(w) == (in_r or in_s)
            assert i.accepts(w) == (in_r and in_s)
            assert c.accepts(w) == (not in_r)

    check()


def test_complement_adds_no_states(bitset_builder):
    b = bitset_builder
    m = from_regex(b, parse(b, "(.*0.*)&~(.*01.*)"))
    c = ops.complement(m)
    assert c.state_count == m.state_count
    assert c.delta == m.delta
    assert c.initial == B.neg(m.initial)


def test_double_complement_restores_initial(bitset_builder):
    b = bitset_builder
    m = from_regex(b, parse(b, "(ab)*"))
    assert ops.complement(ops.complement(m)).initial == m.initial


def test_difference(bitset_builder):
    b = bitset_builder
    m = from_regex(b, parse(b, "(a|b)*"))
    n = from_regex(b, parse(b, ".*ab.*"))
    d = ops.difference(m, n)
    assert d.accepts("ba")
    assert not d.accepts("ab")
    assert not d.accepts("a0")


def test_shared_states_merge_not_duplicate(bitset_builder):
    b = bitset_builder
    r = parse(b, "(a|b)*0")
    m, n = from_regex(b, r), from_regex(b, parse(b, "(a|b)*0|ab"))
    u = ops.union(m, n)
    # the shared derivative states appear once
    assert u.state_count <= m.state_count + n.state_count


def test_mismatched_algebras_rejected(bitset_builder, ascii_builder):
    m = from_regex(bitset_builder, parse(bitset_builder, "a"))
    n = from_regex(ascii_builder, parse(ascii_builder, "a"))
    with pytest.raises(ValueError):
        ops.union(m, n)
