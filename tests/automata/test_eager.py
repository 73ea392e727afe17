"""The eager compiler: full ERE support, oracle agreement, blowup,
and the eager baseline solver built on it."""

from hypothesis import given, settings

from repro.automata.eager import eager_compile
from repro.automata.sfa import StateBudget
from repro.regex import parse
from repro.regex.semantics import Matcher
from repro.solver.baselines import EagerAutomataSolver
from tests.strategies import extended_regexes, short_strings


def test_language_agreement_full_ere(bitset_builder):
    b = bitset_builder
    matcher = Matcher(b.algebra)

    @settings(max_examples=80, deadline=None)
    @given(extended_regexes(b, max_leaves=5), short_strings(4))
    def check(r, s):
        sfa = eager_compile(b.algebra, r, StateBudget(100000))
        assert sfa.accepts(s) == matcher.matches(r, s)

    check()


def test_solver_interface(bitset_builder, bitset_matcher):
    solver = EagerAutomataSolver(bitset_builder)
    r = parse(bitset_builder, "(.*0.*)&~(.*01.*)")
    result = solver.is_satisfiable(r)
    assert result.is_sat
    assert bitset_matcher.matches(r, result.witness)


def test_solver_unsat(bitset_builder):
    solver = EagerAutomataSolver(bitset_builder)
    assert solver.is_satisfiable(
        parse(bitset_builder, "~(a*)&a*")
    ).is_unsat


def test_states_created_grows_with_loop_bounds(bitset_builder):
    """Eagerness quantified: the whole state space is built before the
    (trivially answerable) question is asked."""
    b = bitset_builder
    small = EagerAutomataSolver(b).is_satisfiable(parse(b, ".{4}a"))
    large = EagerAutomataSolver(b).is_satisfiable(parse(b, ".{64}a"))
    assert large.stats["states_created"] > 8 * small.stats["states_created"]


def test_budget_failure_is_unknown(bitset_builder):
    solver = EagerAutomataSolver(bitset_builder, max_states=10)
    result = solver.is_satisfiable(parse(bitset_builder, "~(.*ab.{6})"))
    assert result.is_unknown


def test_nested_boolean_compilation(bitset_builder):
    b = bitset_builder
    matcher = Matcher(b.algebra)
    r = parse(b, "((a|b)*&~(.*ab.*))|(0+&~(00))")
    sfa = eager_compile(b.algebra, r, StateBudget(100000))
    for s in ("", "ba", "ab", "0", "00", "000", "a0"):
        assert sfa.accepts(s) == matcher.matches(r, s)


def test_loop_over_boolean_body(bitset_builder):
    b = bitset_builder
    matcher = Matcher(b.algebra)
    body = b.inter([parse(b, "(a|b){2}"), b.compl(parse(b, "bb"))])
    r = b.loop(body, 1, 2)
    sfa = eager_compile(b.algebra, r, StateBudget(100000))
    for s in ("ab", "ba", "bb", "abab", "abbb", ""):
        assert sfa.accepts(s) == matcher.matches(r, s)
