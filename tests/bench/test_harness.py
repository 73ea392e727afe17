"""The benchmark harness and reporting machinery."""

import os

import pytest

from repro.alphabet import IntervalAlgebra
from repro.regex import RegexBuilder, parse
from repro.bench.engines import default_engines, reference_engine
from repro.bench.harness import (
    Problem, cumulative, run_matrix, run_problem, summarize,
)
from repro.bench.reporting import (
    figure_4a_table, figure_4b_series, figure_4c_table, render_4b,
    speedup_vs,
)
from repro.bench.suites import suite_inventory
from repro.solver import formula as F


@pytest.fixture(scope="module")
def builder():
    return RegexBuilder(IntervalAlgebra())


@pytest.fixture(scope="module")
def problems(builder):
    sat = Problem(
        "p_sat", "mini", "H",
        F.InRe("x", parse(builder, "(.*0.*)&~(.*01.*)")), "sat",
    )
    unsat = Problem(
        "p_unsat", "mini", "B",
        F.And((F.InRe("x", parse(builder, "a+")),
               F.Not(F.InRe("x", parse(builder, "a*"))))), "unsat",
    )
    easy = Problem(
        "p_easy", "mini", "NB", F.EqConst("x", "hello"), "sat",
    )
    return [sat, unsat, easy]


def test_run_problem_correct(builder, problems):
    engine = reference_engine()
    for problem in problems:
        record = run_problem(engine, builder, problem, fuel=50000, seconds=5.0)
        assert record.outcome == "correct"
        assert record.solved


def test_run_problem_timeout(builder):
    engine = reference_engine()
    hard = Problem(
        "p_hard", "mini", "H",
        F.InRe("x", parse(builder, "~(.*a.{28})&~(.*b.{28})&(a|b){40}")),
        "sat",
    )
    record = run_problem(engine, builder, hard, fuel=3, seconds=5.0)
    assert record.outcome == "timeout"
    assert not record.solved


def test_wrong_label_detected(builder):
    engine = reference_engine()
    mislabeled = Problem(
        "p_bad", "mini", "NB", F.EqConst("x", "a"), "unsat",
    )
    record = run_problem(engine, builder, mislabeled, fuel=50000, seconds=5.0)
    assert record.outcome == "wrong"


def test_unlabeled_counts_unchecked(builder):
    engine = reference_engine()
    unlabeled = Problem("p_unk", "mini", "NB", F.EqConst("x", "a"), None)
    record = run_problem(engine, builder, unlabeled, fuel=50000, seconds=5.0)
    assert record.outcome == "unchecked"
    assert record.solved


def test_matrix_and_reports(builder, problems):
    engines = default_engines()
    records = run_matrix(engines, problems, builder, fuel=50000, seconds=5.0)
    assert len(records) == len(engines) * len(problems)

    summary = summarize(records, budget_seconds=5.0)
    cell = summary[("sbd", "H")]
    assert cell["total"] == 1 and cell["solved"] == 1
    assert cell["solved_pct"] == 100.0

    table = figure_4a_table(records, 5.0)
    assert "sbd" in table and "eager-sfa" in table

    series = figure_4b_series(records)
    assert series["H"]["sbd"][-1][1] == 1
    assert "sbd" in render_4b(series)

    ratios = speedup_vs(records, 5.0)
    assert all(v > 0 for group in ratios.values() for v in group.values())


def test_cumulative_sorted(builder, problems):
    engine = reference_engine()
    records = [
        run_problem(engine, builder, p, fuel=50000, seconds=5.0)
        for p in problems
    ]
    times = cumulative(records, "sbd")
    assert times == sorted(times)
    assert len(times) == 3


def test_figure_4c_table(builder):
    text = figure_4c_table(suite_inventory(builder))
    assert "blowup" in text and "total" in text


def test_run_matrix_jobs_matches_serial(builder, problems):
    """The acceptance property: fanning the matrix over worker
    processes must not change any verdict or outcome."""
    engines = default_engines()[:2]
    serial = run_matrix(engines, problems, builder, fuel=50000, seconds=5.0)
    par = run_matrix(engines, problems, builder, fuel=50000, seconds=5.0,
                     jobs=2)
    assert len(par) == len(serial)
    for s, p in zip(serial, par):
        assert (p.engine, p.problem.name) == (s.engine, s.problem.name)
        assert (p.status, p.outcome) == (s.status, s.outcome)


def test_run_matrix_parallel_rejects_unknown_engine(builder, problems):
    from repro.bench.harness import Engine

    bogus = Engine("no-such-engine", lambda b: None)
    with pytest.raises(KeyError, match="no-such-engine"):
        run_matrix([bogus], problems, builder, fuel=1000, seconds=1.0, jobs=2)


def test_run_matrix_jobs_solves_lookaround_cells_in_workers(monkeypatch):
    """Lookaround problems have no SMT-LIB form; they still travel to
    the workers (as printed patterns) instead of being solved in the
    calling process, with every cell's verdict unchanged."""
    from repro.bench import harness
    from repro.bench.generators import lookarounds

    builder = RegexBuilder(IntervalAlgebra())
    problems = lookarounds.generate(builder)
    engines = default_engines()
    serial = run_matrix(engines, problems, builder, fuel=50000, seconds=5.0)
    solved_here = []
    cell = harness.solve_cell

    def spy(*args, **kwargs):
        # forked workers inherit the spy; only this process's calls
        # land in this process's list
        solved_here.append(os.getpid())
        return cell(*args, **kwargs)

    monkeypatch.setattr(harness, "solve_cell", spy)
    par = run_matrix(engines, problems, builder, fuel=50000, seconds=5.0,
                     jobs=2)
    assert solved_here == []
    assert len(serial) == len(engines) * len(problems) == 90
    assert [(r.engine, r.problem.name, r.status, r.outcome) for r in par] \
        == [(r.engine, r.problem.name, r.status, r.outcome) for r in serial]
