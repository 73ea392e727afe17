"""The mini-SMT layer: Boolean structure over regex goals."""

import pytest

from repro.regex import parse
from repro.solver import Budget, SmtSolver
from repro.solver import formula as F


@pytest.fixture
def solver(bitset_builder):
    return SmtSolver(bitset_builder)


def inre(builder, var, pattern):
    return F.InRe(var, parse(builder, pattern))


def test_single_membership(solver, bitset_builder):
    result = solver.solve(inre(bitset_builder, "x", "(ab)+"))
    assert result.is_sat
    assert result.model["x"] == "ab"


def test_conjunction_collapses_to_intersection(solver, bitset_builder):
    f = F.And((
        inre(bitset_builder, "x", ".*a.*"),
        inre(bitset_builder, "x", ".*0.*"),
        F.LenCmp("x", "=", 2),
    ))
    result = solver.solve(f)
    assert result.is_sat
    assert sorted(result.model["x"]) == ["0", "a"]


def test_negated_membership_becomes_complement(solver, bitset_builder):
    f = F.And((
        inre(bitset_builder, "x", "(a|b)+"),
        F.Not(inre(bitset_builder, "x", ".*a.*")),
    ))
    result = solver.solve(f)
    assert result.is_sat
    assert "a" not in result.model["x"] and result.model["x"]


def test_unsat_conjunction(solver, bitset_builder):
    f = F.And((
        inre(bitset_builder, "x", "a+"),
        F.Not(inre(bitset_builder, "x", "a*")),
    ))
    assert solver.solve(f).is_unsat


def test_disjunction_picks_live_branch(solver, bitset_builder):
    f = F.Or((
        F.And((inre(bitset_builder, "x", "a"),
               F.Not(inre(bitset_builder, "x", "a")))),
        inre(bitset_builder, "x", "b"),
    ))
    result = solver.solve(f)
    assert result.is_sat
    assert result.model["x"] == "b"


def test_multiple_variables(solver, bitset_builder):
    f = F.And((
        inre(bitset_builder, "x", "a+"),
        inre(bitset_builder, "y", "b+"),
        F.LenCmp("y", ">=", 2),
    ))
    result = solver.solve(f)
    assert result.model["x"].startswith("a")
    assert result.model["y"] == "bb"


def test_model_checks_out(solver, bitset_builder):
    f = F.And((
        inre(bitset_builder, "x", "(.*0.*)&~(.*01.*)"),
        F.LenCmp("x", ">=", 2),
        F.Or((F.EqConst("y", "ab"), F.EqConst("y", "ba"))),
    ))
    result = solver.solve(f)
    assert result.is_sat
    assert solver.check_model(f, result.model)


def test_check_model_rejects_bad_model(solver, bitset_builder):
    f = inre(bitset_builder, "x", "a+")
    assert not solver.check_model(f, {"x": "b"})
    assert not solver.check_model(f, {})  # default empty string fails a+


def test_bool_constants(solver):
    assert solver.solve(F.TRUE).is_sat
    assert solver.solve(F.FALSE).is_unsat
    assert solver.solve(F.Not(F.FALSE)).is_sat


def test_nested_boolean_structure(solver, bitset_builder):
    b = bitset_builder
    f = F.And((
        F.Or((inre(b, "x", "a*"), inre(b, "x", "b*"))),
        F.Not(F.Or((F.EqConst("x", ""), F.EqConst("x", "a")))),
        F.LenCmp("x", "<=", 2),
    ))
    result = solver.solve(f)
    assert result.is_sat
    assert result.model["x"] not in ("", "a")


def test_budget_propagates(bitset_builder):
    solver = SmtSolver(bitset_builder)
    f = F.InRe("x", parse(bitset_builder, "~(.*a.{25})&(a|b){30}"))
    result = solver.solve(f, budget=Budget(fuel=2))
    assert result.is_unknown


def test_unknown_branch_does_not_mask_sat(bitset_builder):
    """A later decidable branch still yields sat."""
    solver = SmtSolver(bitset_builder)
    f = F.Or((
        F.And((inre(bitset_builder, "x", "a"),
               F.Not(inre(bitset_builder, "x", "a")))),
        inre(bitset_builder, "y", "b*"),
    ))
    assert solver.solve(f).is_sat


def test_graph_persists_across_solves(solver, bitset_builder):
    """Section 5's graph ``G`` outlives a query: the second solve of a
    dead constraint reads its Dead mark instead of exploring again."""
    dead = inre(bitset_builder, "x", "(ab)+&~(a(ba)*b)")
    # one step of fuel does not refute it from scratch
    fresh = SmtSolver(bitset_builder)
    assert fresh.solve(dead, budget=Budget(fuel=1)).is_unknown
    assert solver.solve(dead).is_unsat
    vertices = solver.engine.graph.stats()["vertices"]
    assert solver.solve(dead, budget=Budget(fuel=1)).is_unsat
    assert solver.engine.graph.stats()["vertices"] == vertices


class TestWitnessValidation:
    """A sat verdict is only reported once the engine's witness has been
    checked against both theories; a broken engine degrades to unknown
    with a structured error instead of returning a bogus model."""

    class BadWitnessEngine:
        def __init__(self, witness):
            self.witness = witness

        def is_satisfiable(self, regex, budget=None):
            from repro.solver.result import SolverResult

            return SolverResult("sat", witness=self.witness)

    def test_wrong_witness_maps_to_unknown(self, bitset_builder):
        solver = SmtSolver(
            bitset_builder, regex_engine=self.BadWitnessEngine("zzz")
        )
        result = solver.solve(inre(bitset_builder, "x", "a+"))
        assert result.is_unknown
        assert result.error is not None
        assert "witness" in result.reason

    def test_missing_witness_maps_to_unknown(self, bitset_builder):
        solver = SmtSolver(
            bitset_builder, regex_engine=self.BadWitnessEngine(None)
        )
        result = solver.solve(inre(bitset_builder, "x", "a+"))
        assert result.is_unknown
        assert result.error is not None

    def test_length_atoms_are_checked_arithmetically(self, bitset_builder):
        # the witness matches the regex but violates the length bound
        # that was folded into it; the cross-theory check catches the
        # inconsistency
        solver = SmtSolver(
            bitset_builder, regex_engine=self.BadWitnessEngine("aaa")
        )
        f = F.And((
            inre(bitset_builder, "x", "a+"),
            F.LenCmp("x", "<=", 2),
        ))
        result = solver.solve(f)
        assert result.is_unknown

    def test_healthy_engine_still_reports_sat(self, bitset_builder):
        result = SmtSolver(bitset_builder).solve(
            F.And((inre(bitset_builder, "x", "a+"),
                   F.LenCmp("x", "<=", 2)))
        )
        assert result.is_sat
        assert result.model["x"] in ("a", "aa")
