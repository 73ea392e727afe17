"""Benchmark harness: problems, engines, and the evaluation runner.

Mirrors the paper's methodology (Section 6): every engine gets the
same per-problem budget; errors, wrong answers and unsupported cases
are treated as timeouts for comparison purposes; answers are checked
against the generator's label, and sat models are additionally
validated against the formula.
"""

import statistics
import time

from repro.solver.formula import is_boolean_combination
from repro.solver.result import Budget, error_info
from repro.solver.smt import SmtSolver


class Problem:
    """One benchmark instance: a formula with provenance and label."""

    __slots__ = ("name", "suite", "group", "formula", "expected")

    def __init__(self, name, suite, group, formula, expected=None):
        self.name = name
        self.suite = suite
        self.group = group          # "NB", "B", or "H"
        self.formula = formula
        self.expected = expected    # "sat" / "unsat" / None

    def is_boolean(self):
        return is_boolean_combination(self.formula)

    def __repr__(self):
        return "Problem(%s/%s)" % (self.suite, self.name)


class Engine:
    """A named solving pipeline: the shared SMT front end over one
    regex satisfiability engine."""

    def __init__(self, name, make_regex_engine):
        self.name = name
        self._make = make_regex_engine

    def fresh_solver(self, builder):
        return SmtSolver(builder, self._make(builder))


class Record:
    """Outcome of one (engine, problem) run.

    ``stats`` holds the per-record counters captured from the solver:
    a copy of the result's stats plus the engine's metrics-registry
    snapshot under ``"metrics"``, so the exported benchmark JSON carries
    explored-state, sat-check and memo counters for every run.
    """

    __slots__ = ("problem", "engine", "status", "seconds", "outcome", "stats")

    def __init__(self, problem, engine, status, seconds, outcome, stats=None):
        self.problem = problem
        self.engine = engine
        self.status = status
        self.seconds = seconds
        # outcome: "correct", "wrong", "timeout", "unchecked"
        self.outcome = outcome
        self.stats = stats if stats is not None else {}

    @property
    def solved(self):
        return self.outcome in ("correct", "unchecked")


def _capture_stats(result, solver):
    """Per-record counters: result stats + the engine's metrics tree."""
    stats = dict(result.stats)
    obs = getattr(getattr(solver, "engine", None), "obs", None)
    if obs is not None and obs.metrics.enabled:
        stats["metrics"] = obs.metrics.snapshot()
    return stats


def record_outcome(result, solver, expected, formula=None):
    """Classify one solver result against its expected label.

    Returns ``(status, outcome, stats)`` with the paper's methodology:
    unknowns are "timeout", wrong answers are "timeout"-equivalent, and
    sat models are validated against the formula when available.
    """
    status = result.status
    stats = _capture_stats(result, solver)
    if status == "unknown":
        return status, "timeout", stats
    if expected is None:
        outcome = "unchecked"
    elif status == expected:
        outcome = "correct"
    else:
        outcome = "wrong"
    if (status == "sat" and result.model is not None and outcome != "wrong"
            and formula is not None):
        if not solver.check_model(formula, result.model):
            outcome = "wrong"
    return status, outcome, stats


def run_problem(engine, builder, problem, fuel=200000, seconds=2.0):
    """Run one problem under a fresh solver with a fixed budget, the
    verdict classified by :func:`record_outcome`.  Timeouts, wrong
    answers and crashes are charged the full budget, other runs their
    solve time clamped to it."""
    solver = engine.fresh_solver(builder)
    budget = Budget(fuel=fuel, seconds=seconds)
    started = time.perf_counter()
    try:
        result = solver.solve(problem.formula, budget=budget)
    except Exception as exc:  # a crash counts as a timeout, like the paper
        return Record(problem, engine.name, "error", seconds, "timeout",
                      {"error": error_info(exc)})
    elapsed = time.perf_counter() - started
    status, outcome, stats = record_outcome(
        result, solver, problem.expected, formula=problem.formula
    )
    if seconds is not None and (
            outcome in ("timeout", "wrong") or elapsed > seconds):
        elapsed = seconds
    return Record(problem, engine.name, status, elapsed, outcome, stats)


def run_matrix(engines, problems, builder, fuel=200000, seconds=2.0,
               progress=None):
    """Run every engine on every problem; returns a list of records.

    ``builder`` must be the builder the problems were generated with
    (regexes are interned per builder and cannot be mixed across
    builders).  Each engine still gets a fresh solver per problem, so
    no engine carries state between instances.
    """
    records = []
    for engine in engines:
        for i, problem in enumerate(problems):
            records.append(
                run_problem(engine, builder, problem, fuel=fuel, seconds=seconds)
            )
            if progress is not None and (i + 1) % 50 == 0:
                progress(engine.name, i + 1, len(problems))
    return records


def summarize(records, budget_seconds):
    """Per-(engine, group) summary: solved %, avg and median seconds.

    Timeouts and wrong answers are charged the full budget, following
    the paper's methodology.
    """
    cells = {}
    for record in records:
        key = (record.engine, record.problem.group)
        cells.setdefault(key, []).append(record)
    out = {}
    for (engine, group), recs in cells.items():
        times = [
            r.seconds if r.solved else budget_seconds for r in recs
        ]
        solved = sum(1 for r in recs if r.solved)
        out[(engine, group)] = {
            "total": len(recs),
            "solved": solved,
            "solved_pct": 100.0 * solved / len(recs),
            "avg": statistics.fmean(times),
            "median": statistics.median(times),
        }
    return out


def cumulative(records, engine, group=None):
    """Sorted solve times for the cumulative plot (Figure 4b): the
    k-th entry is the time within which k+1 benchmarks were solved."""
    times = sorted(
        r.seconds
        for r in records
        if r.engine == engine and r.solved
        and (group is None or r.problem.group == group)
    )
    return times
