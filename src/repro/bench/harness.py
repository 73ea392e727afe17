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


def solve_cell(engine, builder, formula, expected, fuel, seconds):
    """One (engine, problem) cell, as :func:`run_problem` and the
    worker's ``bench`` task both run it: a fresh solver, one budget,
    the verdict classified by :func:`record_outcome`.  Returns
    ``(status, seconds, outcome, stats)`` in :class:`Record` order;
    timeouts, wrong answers and crashes are charged the full budget,
    other cells their solve time clamped to it."""
    solver = engine.fresh_solver(builder)
    budget = Budget(fuel=fuel, seconds=seconds)
    started = time.perf_counter()
    try:
        result = solver.solve(formula, budget=budget)
    except Exception as exc:  # a crash counts as a timeout, like the paper
        return "error", seconds, "timeout", {"error": error_info(exc)}
    elapsed = time.perf_counter() - started
    status, outcome, stats = record_outcome(
        result, solver, expected, formula=formula
    )
    if seconds is not None and (
            outcome in ("timeout", "wrong") or elapsed > seconds):
        elapsed = seconds
    return status, elapsed, outcome, stats


def run_problem(engine, builder, problem, fuel=200000, seconds=2.0):
    """Run one problem under a fresh solver with a fixed budget."""
    return Record(problem, engine.name, *solve_cell(
        engine, builder, problem.formula, problem.expected, fuel, seconds,
    ))


def run_matrix(engines, problems, builder, fuel=200000, seconds=2.0,
               progress=None, jobs=1):
    """Run every engine on every problem; returns a list of records.

    ``builder`` must be the builder the problems were generated with
    (regexes are interned per builder and cannot be mixed across
    builders).  Each engine still gets a fresh solver per problem, so
    no engine carries state between instances.

    ``jobs > 1`` fans the (engine, problem) matrix across that many
    worker processes via :mod:`repro.serve`; fuel budgets make the
    verdicts identical to the serial run.  Parallel mode requires
    engines resolvable by name through
    :func:`repro.bench.engines.engine_by_name`.
    """
    if jobs and jobs > 1:
        return run_matrix_parallel(
            engines, problems, builder, fuel=fuel, seconds=seconds,
            progress=progress, jobs=jobs,
        )
    records = []
    for engine in engines:
        for i, problem in enumerate(problems):
            records.append(
                run_problem(engine, builder, problem, fuel=fuel, seconds=seconds)
            )
            if progress is not None and (i + 1) % 50 == 0:
                progress(engine.name, i + 1, len(problems))
    return records


def run_matrix_parallel(engines, problems, builder, fuel=200000, seconds=2.0,
                        progress=None, jobs=2):
    """The batched evaluation matrix: one ``bench`` job per (engine,
    problem) cell, solved by :func:`solve_cell` on a
    :class:`repro.serve.WorkerPool`; no cell is solved in this process.

    Problems travel as SMT-LIB text and are re-parsed against each
    worker's own builder.  The re theory has no zero-width assertions,
    so a lookaround problem, which is one ``str.in_re``, travels as its
    printed pattern instead.  Pool-level failures (a crashed or reaped
    worker) surface as error Records with the full budget charged,
    mirroring the serial path's crash-counts-as-timeout rule.
    """
    from repro.bench.engines import engine_by_name
    from repro.errors import SmtLibError
    from repro.regex import to_pattern
    from repro.serve import Job, solve_batch
    from repro.smtlib.writer import script_text

    for engine in engines:
        engine_by_name(engine.name)  # fail fast on unregistered engines

    wires = []
    for p in problems:
        try:
            wire = {"smt2": script_text(p.formula, builder.algebra,
                                        status=p.expected)}
        except SmtLibError:
            wire = {"pattern": to_pattern(p.formula.regex, builder.algebra)}
        wires.append(wire)
    cells = [(e.name, p, w) for e in engines for p, w in zip(problems, wires)]
    batch = [Job("%s/%s" % (name, p.name), "bench", dict(w, engine=name),
                 expected=p.expected) for name, p, w in cells]

    def pool_progress(done, _total):
        if progress is not None and done % 50 == 0:
            progress("pool", done, len(batch))

    report = solve_batch(
        batch, workers=jobs, fuel=fuel, seconds=seconds,
        progress=pool_progress,
    )
    records = []
    for result, (name, problem, _wire) in zip(report.results, cells):
        if result.outcome is not None:
            records.append(Record(
                problem, name, result.status, result.elapsed,
                result.outcome, result.stats,
            ))
        else:
            # pool-synthesized verdict (crashed/reaped worker): charge
            # the full budget, keep the structured error in the stats
            records.append(Record(
                problem, name, "error", seconds, "timeout",
                {"error": result.error} if result.error else {},
            ))
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
