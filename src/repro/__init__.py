"""repro — Symbolic Boolean derivatives for extended regular
expression constraints.

A from-scratch reproduction of *Symbolic Boolean Derivatives for
Efficiently Solving Extended Regular Expression Constraints*
(Stanford, Veanes, Bjørner; PLDI 2021).

Quickstart::

    from repro import IntervalAlgebra, RegexBuilder, RegexSolver, parse

    algebra = IntervalAlgebra()                  # Unicode BMP
    builder = RegexBuilder(algebra)
    solver = RegexSolver(builder)

    r = parse(builder, r"(.*\\d.*)&~(.*01.*)")   # Section 2's example
    result = solver.is_satisfiable(r)
    assert result.is_sat and result.witness is not None

Containment and equivalence are :meth:`RegexSolver.contains` and
:meth:`RegexSolver.equivalent`: both reduce to the emptiness of one
Boolean combination (§5), so one decision procedure answers all three.

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.  The paper's literal calculus and Figure 3 rule
engine live in :mod:`repro.reference`, which this package does not
import.
"""

from repro.alphabet import (
    BDDAlgebra, BitsetAlgebra, BooleanAlgebra, CharSet, IntervalAlgebra,
)
from repro.regex import RegexBuilder, parse, to_pattern
from repro.regex.semantics import Matcher, matches
from repro.derivatives import DerivativeEngine
from repro.obs import Observability
from repro.solver import Budget, RegexSolver, SmtSolver, SolverResult, formula
from repro.smtlib import parse_script, run_script, script_text
from repro.matcher import Match, RegexMatcher, compile_pattern
from repro import errors, visualize

__version__ = "1.0.0"

__all__ = [
    "BooleanAlgebra", "IntervalAlgebra", "BitsetAlgebra", "BDDAlgebra",
    "CharSet",
    "RegexBuilder", "parse", "to_pattern", "Matcher", "matches",
    "DerivativeEngine", "RegexSolver", "SmtSolver", "Budget",
    "SolverResult", "Observability", "formula",
    "parse_script", "run_script", "script_text",
    "RegexMatcher", "Match", "compile_pattern",
    "errors", "visualize",
]
