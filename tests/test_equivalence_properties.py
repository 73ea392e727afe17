"""Property tests for ``RegexSolver.equivalent``.

Three oracles, on all three alphabet algebras:

* agreement with the eager automata baseline on the emptiness of the
  symmetric difference — two entirely different algorithms for one
  question, exercised on both answers;
* metamorphic invariance: equivalence is preserved by reversal and by
  complementation of both sides;
* witness validity: a claimed distinguishing string must actually be
  in exactly one of the two languages.
"""

import random

import pytest

from repro.alphabet import BDDAlgebra, BitsetAlgebra, IntervalAlgebra
from repro.regex import RegexBuilder, reverse, to_pattern
from repro.regex.semantics import Matcher
from repro.solver import Budget, RegexSolver
from repro.solver.baselines import EagerAutomataSolver
from repro.verify.campaign import RegexGen

ALPHABET = "ab01"
CASES = 25
DECIDED = ("sat", "unsat")
#: Concrete agreements the cross-check must reach on each answer.
MIN_AGREEMENTS = 20


def _budget():
    return Budget(fuel=300000, seconds=5)


def _algebra(name):
    if name == "interval":
        return IntervalAlgebra(127)
    if name == "bitset":
        return BitsetAlgebra(ALPHABET + "z")
    return BDDAlgebra(8)


@pytest.fixture(params=["interval", "bitset", "bdd"])
def builder(request):
    return RegexBuilder(_algebra(request.param))


def _pairs(builder, seed, count=CASES):
    rng = random.Random(seed)
    gen = RegexGen(rng, builder, ALPHABET)
    for _ in range(count):
        yield gen.regex(rng.randint(1, 3)), gen.regex(rng.randint(1, 3))


def _de_morgan_pairs(builder, seed, count=CASES):
    """``~(l|r)`` against ``~l&~r``: equivalent by construction."""
    for left, right in _pairs(builder, seed, count):
        yield (
            builder.compl(builder.union([left, right])),
            builder.inter([builder.compl(left), builder.compl(right)]),
        )


def _symmetric_difference(builder, left, right):
    return builder.union([
        builder.inter([left, builder.compl(right)]),
        builder.inter([right, builder.compl(left)]),
    ])


def test_equivalent_agrees_with_eager_baseline(builder):
    solver = RegexSolver(builder)
    eager = EagerAutomataSolver(builder)
    agreed = {"sat": 0, "unsat": 0}
    pairs = list(_pairs(builder, seed=1))
    pairs += _de_morgan_pairs(builder, seed=1)
    for left, right in pairs:
        verdict = solver.equivalent(left, right, _budget())
        baseline = eager.is_satisfiable(
            _symmetric_difference(builder, left, right)
        )
        if verdict.status in DECIDED and baseline.status in DECIDED:
            # equivalent exactly when the symmetric difference is empty
            assert (verdict.status == "sat") == (baseline.status == "unsat"), (
                to_pattern(left, builder.algebra),
                to_pattern(right, builder.algebra),
            )
            agreed[verdict.status] += 1
    assert min(agreed.values()) >= MIN_AGREEMENTS, agreed


def test_distinguishing_witness_is_valid(builder):
    solver = RegexSolver(builder)
    matcher = Matcher(builder.algebra)
    for left, right in _pairs(builder, seed=2):
        result = solver.equivalent(left, right, _budget())
        if result.status != "unsat" or result.witness is None:
            continue
        witness = result.witness
        assert matcher.matches(left, witness) != \
            matcher.matches(right, witness), (
                to_pattern(left, builder.algebra),
                to_pattern(right, builder.algebra), witness,
            )


def test_equivalence_invariant_under_reversal(builder):
    solver = RegexSolver(builder)
    for left, right in _pairs(builder, seed=3):
        direct = solver.equivalent(left, right, _budget())
        rev = solver.equivalent(
            reverse(builder, left), reverse(builder, right), _budget()
        )
        if direct.status in DECIDED and rev.status in DECIDED:
            assert direct.status == rev.status


def test_equivalence_invariant_under_complement(builder):
    solver = RegexSolver(builder)
    for left, right in _pairs(builder, seed=4):
        direct = solver.equivalent(left, right, _budget())
        comp = solver.equivalent(
            builder.compl(left), builder.compl(right), _budget()
        )
        if direct.status in DECIDED and comp.status in DECIDED:
            assert direct.status == comp.status


def test_self_equivalence_and_absorption(builder):
    solver = RegexSolver(builder)
    rng = random.Random(6)
    gen = RegexGen(rng, builder, ALPHABET)
    for _ in range(CASES):
        regex = gen.regex(rng.randint(1, 3))
        assert solver.equivalent(regex, regex, _budget()).status == "sat"
        doubled = builder.union([regex, regex])
        assert solver.equivalent(regex, doubled, _budget()).status == "sat"
