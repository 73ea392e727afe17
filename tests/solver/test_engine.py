"""The derivative-based decision procedure (Theorem 5.2 in action)."""

import pytest
from hypothesis import given, settings

from repro.alphabet import IntervalAlgebra
from repro.errors import AlgebraError, BudgetExceeded
from repro.regex import RegexBuilder, parse
from repro.regex.semantics import Matcher, enumerate_strings
from repro.solver import Budget, RegexSolver
from tests.conftest import ALPHABET
from tests.strategies import extended_regexes

KNOWN = [
    (r"(.*0.*)&~(.*01.*)", "sat"),
    (r"(.*0.*)&~(.*0.*)", "unsat"),
    (r"~(a*)&a*", "unsat"),
    (r"(ab)*&(ba)*", "sat"),          # both contain epsilon
    (r"(ab)+&(ba)+", "unsat"),
    (r"a{3,5}&~(a{2,6})", "unsat"),
    (r"a{3,9}&~(a{3,8})", "sat"),
    (r"(a|b){4}&.*00.*", "unsat"),
    (r"~(())&~(.)&.{0,1}", "unsat"),
    (r".*01.*&(0|1){3}", "sat"),
]


@pytest.mark.parametrize("pattern,expected", KNOWN)
def test_known_instances(bitset_solver, bitset_builder, pattern, expected):
    result = bitset_solver.is_satisfiable(parse(bitset_builder, pattern))
    assert result.status == expected


def test_witnesses_are_members(bitset_solver, bitset_builder, bitset_matcher):
    for pattern, expected in KNOWN:
        if expected != "sat":
            continue
        r = parse(bitset_builder, pattern)
        result = bitset_solver.is_satisfiable(r)
        assert bitset_matcher.matches(r, result.witness)


def test_agrees_with_exhaustive_oracle(bitset_builder):
    solver = RegexSolver(bitset_builder)
    matcher = Matcher(bitset_builder.algebra)

    @settings(max_examples=150, deadline=None)
    @given(extended_regexes(bitset_builder))
    def check(r):
        result = solver.is_satisfiable(r, Budget(fuel=50000))
        # oracle: search strings up to a length that covers the state
        # space depth for these small regexes
        has_short_witness = any(
            matcher.matches(r, s) for s in enumerate_strings(ALPHABET, 4)
        )
        if result.is_sat:
            assert matcher.matches(r, result.witness)
        elif has_short_witness:
            raise AssertionError("solver says unsat but witness exists")

    check()


def test_epsilon_witness(bitset_solver, bitset_builder):
    result = bitset_solver.is_satisfiable(parse(bitset_builder, "a*"))
    assert result.is_sat and result.witness == ""


def test_containment_holds(bitset_solver, bitset_builder):
    sub = parse(bitset_builder, "(ab)+")
    sup = parse(bitset_builder, "(ab)*")
    assert bitset_solver.contains(sub, sup).is_sat


def test_containment_counterexample(bitset_solver, bitset_builder, bitset_matcher):
    sub = parse(bitset_builder, "(ab)*")
    sup = parse(bitset_builder, "(ab)+")
    result = bitset_solver.contains(sub, sup)
    assert result.is_unsat
    assert bitset_matcher.matches(sub, result.witness)
    assert not bitset_matcher.matches(sup, result.witness)


def test_equivalence(bitset_solver, bitset_builder):
    left = parse(bitset_builder, "(a|b)*")
    right = parse(bitset_builder, "(a*b*)*")
    assert bitset_solver.equivalent(left, right).is_sat


def test_inequivalence_distinguishing_string(bitset_solver, bitset_builder,
                                             bitset_matcher):
    left = parse(bitset_builder, "a*b*")
    right = parse(bitset_builder, "(a|b)*")
    result = bitset_solver.equivalent(left, right)
    assert result.is_unsat
    s = result.witness
    assert bitset_matcher.matches(left, s) != bitset_matcher.matches(right, s)


EQUIV_PAIRS = [
    ("(a|b)*", "(a*b*)*"),
    ("a*", "a*a*"),
    ("~(~(ab))", "ab"),
    ("(ab)*a", "a(ba)*"),
    ("a*&b*", "()"),
    ("~(a*)|a*", ".*"),
    ("(a|b){2}", "aa|ab|ba|bb"),
]

INEQUIV_PAIRS = [
    ("a*b*", "(a|b)*"),
    ("(ab)+", "(ab)*"),
    ("~(a)", ".*"),
    ("a{2,4}", "a{2,5}"),
    (".*ab.*", ".*ba.*"),
]


@pytest.mark.parametrize("left,right", EQUIV_PAIRS)
def test_equivalent_pairs(bitset_solver, bitset_builder, left, right):
    left = parse(bitset_builder, left)
    right = parse(bitset_builder, right)
    assert bitset_solver.equivalent(left, right).is_sat


@pytest.mark.parametrize("left,right", INEQUIV_PAIRS)
def test_inequivalent_pairs_with_witness(bitset_solver, bitset_builder,
                                         bitset_matcher, left, right):
    left = parse(bitset_builder, left)
    right = parse(bitset_builder, right)
    result = bitset_solver.equivalent(left, right)
    assert result.is_unsat
    s = result.witness
    assert bitset_matcher.matches(left, s) != bitset_matcher.matches(right, s)


def test_budget_exhaustion_returns_unknown(ascii_builder):
    solver = RegexSolver(ascii_builder)
    r = parse(ascii_builder, "~(.*a.{40})&~(.*b.{40})&(a|b){60}")
    result = solver.is_satisfiable(r, Budget(fuel=5))
    assert result.is_unknown
    assert "fuel" in result.reason


def test_graph_persists_across_queries(bitset_builder):
    solver = RegexSolver(bitset_builder)
    r = parse(bitset_builder, "(a&b)(a|b)*")  # a&b is empty: unsat
    assert solver.is_satisfiable(r).is_unsat
    # second query over the same dead regex hits the bot rule at once
    result = solver.is_satisfiable(r, Budget(fuel=1))
    assert result.is_unsat


def test_bfs_and_dfs_agree(bitset_builder):
    dfs = RegexSolver(bitset_builder, strategy="dfs")
    bfs = RegexSolver(bitset_builder, strategy="bfs")
    for pattern, expected in KNOWN:
        r = parse(bitset_builder, pattern)
        assert dfs.is_satisfiable(r).status == expected
        assert bfs.is_satisfiable(r).status == expected


def test_bfs_finds_shortest_witness(bitset_builder):
    solver = RegexSolver(bitset_builder, strategy="bfs")
    r = parse(bitset_builder, "a{2,7}")
    assert solver.is_satisfiable(r).witness == "aa"


def test_bad_strategy_rejected(bitset_builder):
    with pytest.raises(ValueError):
        RegexSolver(bitset_builder, strategy="zigzag")


def test_is_empty_view(bitset_solver, bitset_builder):
    assert bitset_solver.is_empty(parse(bitset_builder, "a&b")).is_sat
    assert bitset_solver.is_empty(parse(bitset_builder, "a|b")).is_unsat


def test_membership_shortcut(bitset_solver, bitset_builder):
    r = parse(bitset_builder, "(.*0.*)&~(.*01.*)")
    assert bitset_solver.membership("0a", r)
    assert not bitset_solver.membership("01", r)


def test_stats_reported(bitset_solver, bitset_builder):
    result = bitset_solver.is_satisfiable(parse(bitset_builder, "ab(a|b)"))
    assert result.stats["vertices"] >= 1
    assert "sat_checks" in result.stats


def test_foreign_regexes_are_refused():
    # uids are per builder: b2's 'a|b' has the uid of b1's 'a&b', so a
    # solver or engine that took it would answer from b1's memo entry
    b1 = RegexBuilder(IntervalAlgebra(127))
    b2 = RegexBuilder(IntervalAlgebra(127))
    solver = RegexSolver(b1)
    assert solver.is_satisfiable(parse(b1, "a&b")).is_unsat
    foreign = parse(b2, "a|b")
    assert foreign.uid == parse(b1, "a&b").uid
    with pytest.raises(AlgebraError, match="different builder"):
        solver.is_satisfiable(foreign)
    with pytest.raises(AlgebraError, match="different builder"):
        solver.engine.derivative(foreign)
    with pytest.raises(AlgebraError, match="different builder"):
        solver.engine.matches(foreign, "a")
    assert RegexSolver(b2).is_satisfiable(foreign).is_sat
    assert solver.is_satisfiable(parse(b1, "a|b")).is_sat
