"""The derivative-based decision procedure and the mini-SMT layer."""

from repro.solver.engine import RegexSolver
from repro.solver.graph import RegexGraph
from repro.solver.result import Budget, SAT, SolverResult, UNKNOWN, UNSAT
from repro.solver.smt import SmtSolver
from repro.solver.context import SolverContext
from repro.solver.equivalence import BisimulationChecker
from repro.solver import baselines, formula

__all__ = [
    "RegexSolver", "RegexGraph", "Budget", "SolverResult",
    "SAT", "UNSAT", "UNKNOWN", "SmtSolver", "formula",
    "SolverContext", "BisimulationChecker", "baselines",
]
