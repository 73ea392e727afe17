"""Transition regexes: semantics of apply, negate (Lemma 4.2) and
concatenation lifting (Lemma 4.1)."""

import pytest
from hypothesis import given, settings

from repro.reference.derivative import derivative
from repro.reference.transition import (
    TRCompl, TRCond, TRInter, TRLeaf, TRUnion, apply, negate,
    nontrivial_terminals, terminals, tr_concat,
)
from repro.regex import parse
from repro.regex.semantics import Matcher, enumerate_strings
from tests.conftest import ALPHABET
from tests.strategies import extended_regexes


def lang(matcher, regex, max_len=3):
    return frozenset(
        s for s in enumerate_strings(ALPHABET, max_len)
        if matcher.matches(regex, s)
    )


@pytest.fixture
def cond(bitset_builder):
    b = bitset_builder
    return TRCond(
        b.algebra.from_char("a"), TRLeaf(b.string("b0")), TRLeaf(b.char("b"))
    )


class TestApply:
    def test_leaf_is_constant(self, bitset_builder):
        leaf = TRLeaf(bitset_builder.char("b"))
        for ch in ALPHABET:
            assert apply(bitset_builder, leaf, ch) is bitset_builder.char("b")

    def test_cond_branches(self, bitset_builder, cond):
        assert apply(bitset_builder, cond, "a") is bitset_builder.string("b0")
        assert apply(bitset_builder, cond, "b") is bitset_builder.char("b")

    def test_union_inter_compl(self, bitset_builder):
        b = bitset_builder
        t1, t2 = TRLeaf(b.char("a")), TRLeaf(b.char("b"))
        assert apply(b, TRUnion((t1, t2)), "a") is b.union(
            [b.char("a"), b.char("b")]
        )
        assert apply(b, TRInter((t1, t2)), "a") is b.inter(
            [b.char("a"), b.char("b")]
        )
        assert apply(b, TRCompl(t1), "a") is b.compl(b.char("a"))

    def test_apply_rejects_garbage(self, bitset_builder):
        with pytest.raises(TypeError):
            apply(bitset_builder, "nope", "a")


class TestNegate:
    def test_negate_eliminates_top_complement(self, bitset_builder, cond):
        dual = negate(bitset_builder, TRCompl(cond))
        assert dual == cond

    def test_lemma_4_2_pointwise(self, bitset_builder):
        """negate(tau)(a) == ~(tau(a)) for derivative-built TRs."""
        b = bitset_builder
        matcher = Matcher(b.algebra)

        @settings(max_examples=100, deadline=None)
        @given(extended_regexes(b))
        def check(r):
            tau = derivative(b, r)
            dual = negate(b, tau)
            for ch in ALPHABET:
                lhs = apply(b, dual, ch)
                rhs = b.compl(apply(b, tau, ch))
                assert lang(matcher, lhs) == lang(matcher, rhs)

        check()

    def test_negate_swaps_union_inter(self, bitset_builder):
        b = bitset_builder
        t = TRUnion((TRLeaf(b.char("a")), TRLeaf(b.char("b"))))
        assert isinstance(negate(b, t), TRInter)


class TestConcat:
    def test_lemma_4_1_pointwise(self, bitset_builder):
        """(tau . R)(a) has language tau(a) . L(R)."""
        b = bitset_builder
        matcher = Matcher(b.algebra)
        suffix = parse(b, "(0|1)*")

        @settings(max_examples=100, deadline=None)
        @given(extended_regexes(b))
        def check(r):
            tau = derivative(b, r)
            lifted = tr_concat(b, tau, suffix)
            for ch in "a0":
                lhs = apply(b, lifted, ch)
                rhs = b.concat([apply(b, tau, ch), suffix])
                assert lang(matcher, lhs) == lang(matcher, rhs)

        check()

    def test_concat_epsilon_identity(self, bitset_builder, cond):
        assert tr_concat(bitset_builder, cond, bitset_builder.epsilon) is cond


class TestStructure:
    def test_terminals(self, bitset_builder, cond):
        terms = terminals(cond)
        assert bitset_builder.string("b0") in terms
        assert bitset_builder.char("b") in terms

    def test_nontrivial_terminals_drop_bottom_and_full(self, bitset_builder):
        b = bitset_builder
        t = TRUnion((TRLeaf(b.empty), TRLeaf(b.full), TRLeaf(b.char("a"))))
        assert nontrivial_terminals(b, t) == {b.char("a")}

    def test_structural_equality_and_hash(self, bitset_builder):
        b = bitset_builder
        t1 = TRCond(b.algebra.from_char("a"), TRLeaf(b.epsilon), TRLeaf(b.empty))
        t2 = TRCond(b.algebra.from_char("a"), TRLeaf(b.epsilon), TRLeaf(b.empty))
        assert t1 == t2 and hash(t1) == hash(t2)
