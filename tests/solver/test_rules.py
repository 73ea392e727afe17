"""The literal Figure 3 propagation engine: agreement with the
optimized solver, and rule-firing accounting."""

from hypothesis import given, settings

from repro.reference.rules import PropagationEngine, RuleTrace
from repro.regex import parse
from repro.solver import Budget, RegexSolver
from repro.solver.result import UNKNOWN
from tests.strategies import extended_regexes


def test_agrees_with_engine_on_random_regexes(bitset_builder):
    solver = RegexSolver(bitset_builder)
    rules = PropagationEngine(solver)

    @settings(max_examples=120, deadline=None)
    @given(extended_regexes(bitset_builder))
    def check(r):
        fast = solver.is_satisfiable(r, Budget(fuel=50000))
        slow = rules.solve(r, Budget(fuel=50000))
        assert fast.status == slow.status

    check()


def test_witness_is_valid(bitset_builder, bitset_matcher):
    solver = RegexSolver(bitset_builder)
    rules = PropagationEngine(solver)
    r = parse(bitset_builder, "(.*0.*)&~(.*01.*)&.{2,}")
    result = rules.solve(r)
    assert result.is_sat
    assert bitset_matcher.matches(r, result.witness)


def test_der_fires_on_every_expansion(bitset_builder):
    solver = RegexSolver(bitset_builder)
    rules = PropagationEngine(solver)
    trace = RuleTrace()
    rules.solve(parse(bitset_builder, "ab"), trace=trace)
    assert trace.counts["der"] >= 2
    assert trace.counts["upd"] >= 1
    assert trace.counts["ere"] >= 1


def test_ite_fires_on_conditionals(bitset_builder):
    solver = RegexSolver(bitset_builder)
    rules = PropagationEngine(solver)
    trace = RuleTrace()
    rules.solve(parse(bitset_builder, "a|0"), trace=trace)
    assert trace.counts.get("ite", 0) >= 1


def test_bot_fires_on_dead_regexes(bitset_builder):
    solver = RegexSolver(bitset_builder)
    rules = PropagationEngine(solver)
    r = parse(bitset_builder, "(a&b)a*")  # empty head: dead immediately
    first = rules.solve(r)
    assert first.is_unsat
    trace = RuleTrace()
    second = rules.solve(r, trace=trace)
    assert second.is_unsat
    assert trace.counts.get("bot", 0) >= 1


def test_budget_exhaustion(ascii_builder):
    solver = RegexSolver(ascii_builder)
    rules = PropagationEngine(solver)
    r = parse(ascii_builder, "~(.*a.{30})&~(.*b.{30})&(a|b){40}")
    result = rules.solve(r, Budget(fuel=3))
    assert result.status == UNKNOWN


def test_trace_repr_and_limit():
    trace = RuleTrace(limit=2)
    for _ in range(5):
        trace.fire("der", "detail")
    assert trace.counts["der"] == 5
    assert len(trace.entries) == 2
    assert "der=5" in repr(trace)
