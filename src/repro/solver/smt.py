"""Mini-SMT solving of string formulas.

Boolean structure is handled by lazy DNF enumeration; each disjunct is
a conjunction of literals which — following the paper's reduction —
collapses *per variable* into one extended regex: positive membership
contributes the regex, negative membership its complement, and the
conjunction becomes an intersection.  The resulting single-variable
ERE goals are then decided by the plugged-in regex engine.

The regex engine is pluggable so that the benchmark harness can run
the identical front end over our derivative solver and over every
baseline, isolating the algorithmic comparison the paper makes.
"""

from itertools import product

from repro.errors import BudgetExceeded, UnsupportedError
from repro.obs import NULL_OBS
from repro.obs.explain import SmtExplanation
from repro.solver import formula as F
from repro.solver.engine import RegexSolver
from repro.solver.result import (
    Budget, RESOURCE_ERRORS, SAT, SolverResult, UNKNOWN, UNSAT, error_info,
)


class SmtSolver:
    """Solves quantifier-free Boolean combinations of string atoms."""

    def __init__(self, builder, regex_engine=None, obs=None):
        self.builder = builder
        if regex_engine is None:
            regex_engine = RegexSolver(builder, obs=obs)
        self.engine = regex_engine
        # share the regex engine's telemetry unless told otherwise, so
        # SMT-level case splits land in the same registry and trace
        if obs is None:
            obs = getattr(regex_engine, "obs", NULL_OBS)
        self.obs = obs
        self._c_case_splits = obs.metrics.scope("smt").counter("case_splits")
        self._tracer = obs.tracer

    def solve(self, formula, budget=None):
        """Decide satisfiability; on SAT the result carries a model
        mapping each variable to a witness string."""
        events = self.obs.events
        events.emit("smt.start")
        result = self._solve_held(formula, budget)
        if events.enabled:
            stats = result.stats or {}
            events.emit(
                "smt.end", status=result.status,
                case_splits=stats.get("case_splits", 0)
                if isinstance(stats, dict) else 0,
            )
        return result

    def _solve_held(self, formula, budget):
        state = getattr(self.engine, "state", None)
        if state is None:
            return self._solve(formula, budget)
        # the formula's atoms keep references into the regex tables, so
        # the engine state is held for the whole formula: per-variable
        # sub-queries are not query boundaries here.  The one boundary
        # is after the hold is released.
        try:
            with state.hold():
                return self._solve(formula, budget)
        finally:
            state.end_query()

    def _solve(self, formula, budget):
        budget = budget or Budget()
        saw_unknown = False
        unknown_reason = None
        case_splits = 0
        # when the regex engine records provenance, collect one entry
        # per certified per-variable sub-verdict; the Boolean front end
        # itself is outside the certificate trust boundary (DESIGN.md)
        branches = [] if getattr(self.engine, "explain", False) else None
        try:
            for literals in _disjuncts(F.nnf(formula)):
                case_splits += 1
                self._c_case_splits.inc()
                with self._tracer.span("smt.case_split", literals=len(literals)):
                    outcome = self._solve_conjunct(
                        literals, budget, case_splits - 1, branches
                    )
                if outcome is None:
                    saw_unknown = True
                    continue
                if outcome is not False:
                    explanation = None
                    if branches is not None:
                        explanation = SmtExplanation("sat", [
                            b for b in branches
                            if b["case"] == case_splits - 1
                            and b["explanation"].kind == "sat"
                        ])
                    return SolverResult(
                        SAT, model=outcome,
                        stats={"case_splits": case_splits},
                        explanation=explanation,
                    )
        except BudgetExceeded as exc:
            return SolverResult(
                UNKNOWN, reason=str(exc), stats={"case_splits": case_splits}
            )
        except UnsupportedError as exc:
            return SolverResult(
                UNKNOWN, reason=str(exc), stats={"case_splits": case_splits}
            )
        except InvalidWitness as exc:
            # the (pluggable) regex engine reported sat but its witness
            # fails validation against the very constraints it solved:
            # never report such a model as sat — surface a structured
            # unknown instead so differential harnesses can flag it
            return SolverResult(
                UNKNOWN,
                reason=str(exc),
                error=error_info(exc),
                stats={"case_splits": case_splits},
            )
        except RESOURCE_ERRORS as exc:
            # NNF/DNF expansion or regex construction on pathologically
            # nested formulas can exhaust the stack before the regex
            # engine's own guard sees it; map it the same way
            return SolverResult(
                UNKNOWN,
                reason="%s during solving" % type(exc).__name__,
                error=error_info(exc),
                stats={"case_splits": case_splits},
            )
        if saw_unknown:
            return SolverResult(
                UNKNOWN, reason=unknown_reason or "incomplete branch",
                stats={"case_splits": case_splits},
            )
        explanation = None
        if branches is not None:
            # every branch refuted: keep the refutation of each case
            explanation = SmtExplanation("unsat", [
                b for b in branches if b["explanation"].kind == "unsat"
            ])
        return SolverResult(
            UNSAT, stats={"case_splits": case_splits},
            explanation=explanation,
        )

    #: SMT-LIB-flavoured alias for :meth:`solve` (``check-sat``).
    check = solve

    def _solve_conjunct(self, literals, budget, case=0, branches=None):
        """One DNF branch.  Returns a model dict, False (branch unsat),
        or None (branch undecided).  When ``branches`` is a list, the
        per-variable explanations produced by the regex engine are
        appended to it as ``{"case", "var", "explanation"}`` entries."""
        builder = self.builder
        constraints = {}
        length_atoms = {}
        for literal in literals:
            positive = True
            atom = literal
            if isinstance(literal, F.Not):
                positive = False
                atom = literal.child
            if isinstance(atom, F.BoolConst):
                if atom.value != positive:
                    return False
                continue
            regex = atom.to_regex(builder)
            if not positive:
                regex = builder.compl(regex)
            prev = constraints.get(atom.var)
            constraints[atom.var] = (
                regex if prev is None else builder.inter([prev, regex])
            )
            if isinstance(atom, F.LenCmp):
                length_atoms.setdefault(atom.var, []).append(
                    (atom, positive)
                )
        model = {}
        undecided = False
        for var, regex in constraints.items():
            result = self.engine.is_satisfiable(regex, budget)
            if branches is not None and result.explanation is not None:
                branches.append({
                    "case": case, "var": var,
                    "explanation": result.explanation,
                })
            if result.is_unsat:
                return False
            if result.is_unknown:
                undecided = True
                continue
            self._validate_witness(
                var, regex, result.witness, length_atoms.get(var, ())
            )
            model[var] = result.witness
        if undecided:
            return None
        return model

    def _validate_witness(self, var, regex, witness, length_atoms):
        """Check an engine-produced sat witness against *both* theories
        before it becomes part of a model: regex membership (via
        :func:`check_witness`) and the arithmetic reading of every
        length atom.  The engine is pluggable, so a buggy engine could
        otherwise launder an invalid witness straight into a reported
        model.

        Raises :class:`InvalidWitness`; :meth:`_solve` maps it to an
        ``unknown`` result carrying ``error``.
        """
        check_witness(self.builder, regex, witness, var)
        for atom, positive in length_atoms:
            holds = _len_cmp(len(witness), atom.op, atom.bound)
            if holds != positive:
                raise InvalidWitness(
                    "engine witness %r for %s violates length atom "
                    "%s(str.len %s) %s %d" % (
                        witness, var, "" if positive else "not ",
                        var, atom.op, atom.bound,
                    )
                )

    def check_model(self, formula, model):
        """Evaluate a candidate model against the formula (used by the
        test suite to validate produced models end to end)."""
        from repro.regex.semantics import Matcher

        matcher = Matcher(self.builder.algebra)

        def ev(node):
            if isinstance(node, F.BoolConst):
                return node.value
            if isinstance(node, F.And):
                return all(ev(c) for c in node.children)
            if isinstance(node, F.Or):
                return any(ev(c) for c in node.children)
            if isinstance(node, F.Not):
                return not ev(node.child)
            if isinstance(node, F.Atom):
                value = model.get(node.var, "")
                return matcher.matches(node.to_regex(self.builder), value)
            raise TypeError("not a formula: %r" % (node,))

        return ev(formula)


class InvalidWitness(Exception):
    """An engine-produced witness failed post-hoc validation."""


def check_witness(builder, regex, witness, subject):
    """Raise :class:`InvalidWitness` unless ``witness`` is in
    ``L(regex)`` by the reference semantics, which is independent of
    every engine under test.  ``subject`` names what the witness is
    for in the message (an SMT variable, or the pattern)."""
    from repro.regex.semantics import Matcher

    if witness is None:
        raise InvalidWitness(
            "engine reported sat for %s without a witness" % subject
        )
    if not Matcher(builder.algebra).matches(regex, witness):
        raise InvalidWitness(
            "engine witness %r for %s is not in the constraint "
            "language" % (witness, subject)
        )


def _len_cmp(length, op, bound):
    """Arithmetic reading of a length atom on a concrete length."""
    if op == "=":
        return length == bound
    if op == "!=":
        return length != bound
    if op == "<":
        return length < bound
    if op == "<=":
        return length <= bound
    if op == ">":
        return length > bound
    if op == ">=":
        return length >= bound
    raise AssertionError("unknown length operator %r" % op)


def _disjuncts(node):
    """Lazily enumerate the DNF branches of an NNF formula as lists of
    literals (atoms or negated atoms)."""
    if isinstance(node, (F.Atom, F.Not, F.BoolConst)):
        yield [node]
        return
    if isinstance(node, F.Or):
        for child in node.children:
            yield from _disjuncts(child)
        return
    if isinstance(node, F.And):
        streams = [list(_disjuncts(child)) for child in node.children]
        for combo in product(*streams):
            merged = []
            for part in combo:
                merged.extend(part)
            yield merged
        return
    raise TypeError("not an NNF formula: %r" % (node,))
