"""Normal forms: NNF, lift and DNF (Sections 4.1 and 5)."""

from hypothesis import given, settings

from repro.reference.derivative import derivative
from repro.reference.dnf import delta_dnf, dnf, is_dnf, successors
from repro.reference.lift import lift
from repro.reference.nnf import is_nnf, nnf
from repro.reference.transition import (
    TRCompl, TRCond, TRInter, TRLeaf, apply,
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


def test_nnf_removes_complement_nodes(bitset_builder):
    b = bitset_builder

    @settings(max_examples=100, deadline=None)
    @given(extended_regexes(b))
    def check(r):
        tau = derivative(b, r)
        normalized = nnf(b, tau)
        assert is_nnf(normalized)

    check()


def test_nnf_preserves_semantics(bitset_builder):
    b = bitset_builder
    matcher = Matcher(b.algebra)

    @settings(max_examples=100, deadline=None)
    @given(extended_regexes(b))
    def check(r):
        tau = derivative(b, r)
        normalized = nnf(b, tau)
        for ch in ALPHABET:
            assert lang(matcher, apply(b, tau, ch)) == lang(
                matcher, apply(b, normalized, ch)
            )

    check()


def test_nnf_conditional_rule(bitset_builder):
    """NNF(~if(phi, t, f)) = if(phi, NNF(~t), NNF(~f))."""
    b = bitset_builder
    phi = b.algebra.from_char("a")
    tau = TRCompl(TRCond(phi, TRLeaf(b.char("b")), TRLeaf(b.epsilon)))
    normalized = nnf(b, tau)
    assert isinstance(normalized, TRCond)
    assert normalized.then == TRLeaf(b.compl(b.char("b")))
    assert normalized.other == TRLeaf(b.compl(b.epsilon))


def test_lift_requires_nnf(bitset_builder):
    import pytest

    b = bitset_builder
    with pytest.raises(ValueError):
        lift(b, TRCompl(TRLeaf(b.char("a"))))


def test_lift_pushes_intersection_to_leaves(bitset_builder):
    b = bitset_builder
    phi_a = b.algebra.from_char("a")
    phi_b = b.algebra.from_char("b")
    tau = TRInter((
        TRCond(phi_a, TRLeaf(b.string("ab")), TRLeaf(b.char("b"))),
        TRCond(phi_b, TRLeaf(b.string("ba")), TRLeaf(b.char("a"))),
    ))
    lifted = lift(b, tau)
    assert is_dnf(lifted)


def test_lift_prunes_unsat_branches(bitset_builder):
    """if(a, x, y) & if(a, z, w) never pairs x with w."""
    b = bitset_builder
    phi_a = b.algebra.from_char("a")
    x, y = b.string("ab"), b.string("a0")
    z, w = b.string("ba"), b.string("b0")
    tau = TRInter((
        TRCond(phi_a, TRLeaf(x), TRLeaf(y)),
        TRCond(phi_a, TRLeaf(z), TRLeaf(w)),
    ))
    lifted = lift(b, tau)
    assert isinstance(lifted, TRCond)
    assert lifted.then == TRLeaf(b.inter([x, z]))
    assert lifted.other == TRLeaf(b.inter([y, w]))


def test_dnf_preserves_semantics(bitset_builder):
    b = bitset_builder
    matcher = Matcher(b.algebra)

    @settings(max_examples=100, deadline=None)
    @given(extended_regexes(b))
    def check(r):
        tau = derivative(b, r)
        normal = dnf(b, tau)
        assert is_dnf(normal)
        for ch in ALPHABET:
            assert lang(matcher, apply(b, tau, ch)) == lang(
                matcher, apply(b, normal, ch)
            )

    check()


def test_example_5_1(ascii_builder):
    """delta_dnf(~(.*01.*)) = if(0, r & ~(1.*), r)."""
    b = ascii_builder
    r = parse(b, "~(.*01.*)")
    normal = delta_dnf(b, r)
    zero = b.algebra.from_char("0")
    assert isinstance(normal, TRCond)
    assert normal.pred == zero
    assert apply(b, normal, "0") is b.inter([r, b.compl(parse(b, "1.*"))])
    assert apply(b, normal, "x") is r


def test_example_5_1_second_step(ascii_builder):
    """delta_dnf(r & ~(1.*)) = if(0, r & ~(1.*), if(1, bottom, r))."""
    b = ascii_builder
    r = parse(b, "~(.*01.*)")
    state = b.inter([r, b.compl(parse(b, "1.*"))])
    normal = delta_dnf(b, state)
    assert apply(b, normal, "0") is state
    assert apply(b, normal, "1") is b.empty
    assert apply(b, normal, "x") is r


def test_successors_of_section_2(ascii_builder):
    """The literal pipeline yields the paper's three successor states,
    possibly plus redundant conjunction refinements of them (the fused
    engine merges those away — see test_condtree)."""
    b = ascii_builder
    R = parse(b, r"(.*\d.*)&~(.*01.*)")
    R2 = parse(b, r"~(.*01.*)")
    R3 = b.inter([R2, b.compl(parse(b, "1.*"))])
    succ = successors(b, R)
    assert {R, R2, R3} <= succ
    # anything extra is subsumed: an intersection refining one of the three
    assert succ <= {R, R2, R3, b.inter([R, b.compl(parse(b, "1.*"))])}


def test_fused_engine_successors_exact(ascii_builder):
    from repro.derivatives.condtree import DerivativeEngine

    b = ascii_builder
    R = parse(b, r"(.*\d.*)&~(.*01.*)")
    R2 = parse(b, r"~(.*01.*)")
    R3 = b.inter([R2, b.compl(parse(b, "1.*"))])
    engine = DerivativeEngine(b)
    assert engine.successors(R) == {R, R2, R3}
