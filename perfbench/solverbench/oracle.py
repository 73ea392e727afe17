"""Correctness oracles, built in setup and consulted after every query.

Nothing here is timed.  A wrong verdict, a witness or model that does
not replay, and an unknown that carries an error all count as failures
and fail the run.
"""

from repro.bench.engines import engine_by_name
from repro.regex import Matcher, parse
from repro.smtlib.parser import parse_script
from repro.solver.engine import RegexSolver
from repro.solver.result import Budget
from repro.solver.smt import SmtSolver

from solverbench.inputs import SMT2, new_builder

#: Fuel per query.  Budgets are fuel-bound with no wall-clock limit, so
#: every verdict, and with it ``solved_ratio``, is deterministic.
FUEL = 100000

#: The engines that label the problems the generators leave unlabelled.
#: sbd is deliberately absent: the oracle must not be the engine under
#: test.
LABEL_ENGINES = ("eager-sfa", "antimirov-pd", "brzozowski-minterm")


def budget():
    return Budget(fuel=FUEL)


def suite_labels(builder, problems):
    """``{index: "sat" | "unsat"}`` for the suite problems.

    Generator labels are taken as they are.  An unlabelled problem gets
    the verdict the baseline engines agree on; a sat vote counts only
    when the engine's model replays.  A problem the baselines cannot
    decide, or disagree on, stays unlabelled: its sat answers are still
    checked by replay, its unsat answers count as unchecked.
    """
    labels = {}
    for i, problem in enumerate(problems):
        if problem.expected is not None:
            labels[i] = problem.expected
            continue
        votes = set()
        for name in LABEL_ENGINES:
            solver = engine_by_name(name).fresh_solver(builder)
            result = solver.solve(problem.formula, budget=budget())
            if result.is_unsat or (
                result.is_sat
                and solver.check_model(problem.formula, result.model)
            ):
                votes.add(result.status)
        if len(votes) == 1:
            labels[i] = votes.pop()
    return labels


def cold_solve(kind, text):
    """Solve one input on a fresh solver stack: the cold path a
    ``repro`` CLI run takes."""
    builder = new_builder()
    if kind == SMT2:
        formula = parse_script(builder, text).formula
        return SmtSolver(builder).solve(formula, budget())
    regex = parse(builder, text)
    return RegexSolver(builder).is_satisfiable(regex, budget())


class ColdOracle:
    """Verdicts and witnesses of a cold serial sbd run over every
    distinct input, plus what replaying an answer needs.

    Every answer must match the cold verdict, and every sat witness or
    model must replay through the reference semantics
    (:mod:`repro.regex.semantics`), which is independent of the
    derivative engine.  With ``exact_witness`` a pattern's witness must
    also equal the cold one: true for fresh stacks, whose warm replay
    explores the very graph the cold run builds.  A persistent worker's
    interning history reorders successors, so its depth-first search may
    find another witness of the same language.
    """

    def __init__(self, inputs, exact_witness):
        self.exact_witness = exact_witness
        self._expected = {}
        self._parsed = {}
        self._replay_builder = new_builder()
        self._replay_smt = SmtSolver(self._replay_builder)
        self._matcher = Matcher(self._replay_builder.algebra)
        for kind, text in inputs:
            if (kind, text) in self._expected:
                continue
            result = cold_solve(kind, text)
            self._expected[kind, text] = (result.status, result.witness)
            if kind == SMT2:
                parsed = parse_script(self._replay_builder, text).formula
            else:
                parsed = parse(self._replay_builder, text)
            self._parsed[kind, text] = parsed

    def __len__(self):
        return len(self._expected)

    def agrees(self, kind, text, status, witness=None, model=None):
        """True when an answer matches the cold run and replays."""
        want_status, want_witness = self._expected[kind, text]
        if status != want_status:
            return False
        if status != "sat":
            return True
        parsed = self._parsed[kind, text]
        if kind == SMT2:
            return model is not None and self._replay_smt.check_model(
                parsed, model
            )
        if self.exact_witness and witness != want_witness:
            return False
        return witness is not None and self._matcher.matches(parsed, witness)


def replays(kind, builder, parsed, result, solver):
    """Replay one sat answer on the builder it was produced on: the model
    against the formula, or the witness against the pattern."""
    if kind == SMT2:
        return result.model is not None and solver.check_model(
            parsed, result.model
        )
    return (result.witness is not None
            and Matcher(builder.algebra).matches(parsed, result.witness))
