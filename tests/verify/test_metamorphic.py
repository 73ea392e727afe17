"""Metamorphic identities hold on the real solver and catch a liar."""

import random

import pytest

from repro.alphabet import IntervalAlgebra
from repro.derivatives.condtree import DerivativeEngine
from repro.regex import RegexBuilder, parse
from repro.solver.result import SolverResult
from repro.verify.campaign import RegexGen
from repro.verify.metamorphic import check_identities, expanded_pred_count


@pytest.fixture()
def builder():
    return RegexBuilder(IntervalAlgebra(127))


@pytest.mark.parametrize("pattern", [
    "a+", "(a|b)*01", "~(a*)&b+", "a{2,4}", "[]", "()", "~([])",
    "(0|1)+&~(.*01.*)", "(.*a.{4})&(.*b.{4})",
])
def test_identities_hold(builder, pattern):
    assert check_identities(builder, parse(builder, pattern)) == []


def test_identities_hold_on_random_regexes(builder):
    rng = random.Random(11)
    gen = RegexGen(rng, builder)
    for _ in range(40):
        regex = gen.regex(rng.randint(1, 3))
        violations = check_identities(builder, regex)
        assert violations == [], (regex, violations)


def test_lying_solver_is_flagged(builder):
    class Liar:
        """Claims everything unsat; the derivative expansion of a sat
        regex contradicts it."""

        def is_satisfiable(self, regex, budget=None):
            return SolverResult("unsat")

        def equivalent(self, left, right, budget=None):
            return SolverResult("sat")

    # a *consistent* liar agrees with its own derivative expansion, but
    # cannot satisfy the excluded middle: R | ~R is never unsat
    violations = check_identities(
        builder, parse(builder, "ab"), solver=Liar()
    )
    assert "compl-union" in {v.identity for v in violations}
    # a nullable regex is sat with no solving at all: the expansion
    # flags the lie even without derivatives
    violations = check_identities(
        builder, parse(builder, "a*"), solver=Liar()
    )
    assert any(v.identity == "derivative-expansion" for v in violations)


def identities(builder, regex):
    return {v.identity for v in check_identities(builder, regex)}


def test_atom_bound_flags_an_engine_past_the_bound(builder, monkeypatch):
    regex = parse(builder, "(.*a.{4})&(.*b.{4})")
    bound = expanded_pred_count(regex) + 3
    # one more fresh literal than the bound allows, reachable from
    # every state
    fresh = {builder.string("c" * n) for n in range(2, bound + 3)}
    successors = DerivativeEngine.successors
    monkeypatch.setattr(
        DerivativeEngine, "successors",
        lambda engine, r: successors(engine, r) | fresh,
    )
    assert "atom-bound" in identities(builder, regex)
    # outside B(RE) Theorem 7.3 claims nothing, so the identity skips
    outside = parse(builder, "a~(b)")
    assert not outside.in_b_re()
    assert "atom-bound" not in identities(builder, outside)
