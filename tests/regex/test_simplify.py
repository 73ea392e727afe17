"""The simplification pass: identities and language preservation."""

from hypothesis import given, settings

from repro.regex import parse
from repro.regex.ast import INF, LOOP
from repro.regex.semantics import Matcher, enumerate_strings
from repro.regex.simplify import simplify, simplify_fixpoint
from tests.conftest import ALPHABET
from tests.strategies import extended_regexes


def lang(matcher, regex, max_len=3):
    return frozenset(
        s for s in enumerate_strings(ALPHABET, max_len)
        if matcher.matches(regex, s)
    )


def test_preserves_language_random(bitset_builder):
    b = bitset_builder
    matcher = Matcher(b.algebra)

    @settings(max_examples=150, deadline=None)
    @given(extended_regexes(b))
    def check(r):
        simplified = simplify_fixpoint(b, r)
        assert lang(matcher, simplified) == lang(matcher, r)
        assert simplified.size() <= r.size() + 2  # never blows up

    check()


def test_inter_subsumption(bitset_builder):
    b = bitset_builder
    x = parse(b, "(ab)*")
    y = parse(b, "0*")
    redundant = b.inter([x, b.union([x, y])])
    assert simplify(b, redundant) is x


def test_union_subsumption(bitset_builder):
    b = bitset_builder
    x = parse(b, "(ab)*")
    y = parse(b, "0+")
    redundant = b.union([x, b.inter([x, y])])
    assert simplify(b, redundant) is x


def test_loop_fusion_plain(bitset_builder):
    b = bitset_builder
    a = b.char("a")
    r = b.concat([a, a, a])
    simplified = simplify(b, r)
    assert simplified.kind == LOOP
    assert simplified.lo == simplified.hi == 3


def test_loop_fusion_r_rstar_is_plus(bitset_builder):
    b = bitset_builder
    a = b.char("a")
    r = b.concat([a, b.star(a)])
    assert simplify(b, r) is b.plus(a)


def test_loop_fusion_bounded(bitset_builder):
    b = bitset_builder
    a = b.char("a")
    r = b.concat([b.loop(a, 1, 2), b.loop(a, 3, 4)])
    assert simplify(b, r) is b.loop(a, 4, 6)


def test_fusion_does_not_cross_different_bodies(bitset_builder):
    b = bitset_builder
    r = parse(b, "a{2}b{2}")
    assert simplify(b, r) is r


def test_nested_simplification(bitset_builder):
    b = bitset_builder
    x = parse(b, "(ab)+")
    inner = b.union([x, b.inter([x, parse(b, "0")])])
    wrapped = b.star(b.compl(inner))
    simplified = simplify_fixpoint(b, wrapped)
    assert simplified is b.star(b.compl(x))


def test_fixpoint_terminates(bitset_builder):
    b = bitset_builder
    r = parse(b, "((a|b)*&~(.*ab.*))|(0+&~(00))")
    first = simplify_fixpoint(b, r)
    assert simplify_fixpoint(b, first) is first


def test_simplified_derivative_state_space_not_larger(bitset_builder):
    from repro.derivatives.condtree import DerivativeEngine
    from repro.verify.metamorphic import reachable_atoms

    b = bitset_builder
    r = b.concat([b.char("a")] * 6)  # aaaaaa -> a{6}
    plain_atoms = len(reachable_atoms(DerivativeEngine(b), r))
    fused_atoms = len(reachable_atoms(DerivativeEngine(b), simplify(b, r)))
    assert fused_atoms <= plain_atoms
