"""End-to-end telemetry: solver counters, memo hit rates, per-query
deltas, plain-dict stats, and the CLI flags."""

import json

from repro.alphabet import IntervalAlgebra
from repro.obs import Observability, read_chrome, read_jsonl
from repro.regex import RegexBuilder, parse
from repro.solver import Budget, RegexSolver, SolverResult
from repro.__main__ import main


def make_solver(tracing=False):
    builder = RegexBuilder(IntervalAlgebra(127))
    obs = Observability.tracing() if tracing else Observability()
    return RegexSolver(builder, obs=obs), builder


def test_counters_populated_by_a_query():
    solver, builder = make_solver()
    result = solver.is_satisfiable(parse(builder, "(a|b)*abb"))
    assert result.is_sat
    snap = solver.obs.metrics.snapshot()
    assert snap["solver.queries"] == 1
    assert snap["solver.explored"] >= 1
    assert snap["graph.updates"] >= 1
    assert snap["deriv.deriv_memo_misses"] >= 1
    assert snap["algebra.ops"] >= 1


def test_memo_hit_rate_on_repeated_queries():
    """Re-running a query must be answered from the memo tables: the
    second run adds hits without adding misses (the regression the
    paper's laziness story depends on)."""
    solver, builder = make_solver()
    regex = parse(builder, "(a|b)*a(a|b)(a|b)")
    solver.is_satisfiable(regex)
    misses_before = solver.engine.deriv_memo_misses
    hits_before = solver.engine.deriv_memo_hits
    solver.is_satisfiable(regex)
    assert solver.engine.deriv_memo_misses == misses_before
    assert solver.engine.deriv_memo_hits > hits_before


def test_per_query_stats_are_deltas_with_lifetime():
    solver, builder = make_solver()
    r1 = solver.is_satisfiable(parse(builder, "(a|b)*abb"))
    r2 = solver.is_satisfiable(parse(builder, "(a|b)*abb"))
    assert type(r1.stats) is dict
    # second run of the same (memoized, graph-cached) query does very
    # little fresh work...
    assert r2.stats["explored"] <= r1.stats["explored"]
    assert r2.stats["deriv_memo_misses"] == 0
    # ...but the lifetime counters are cumulative across both
    assert r2.stats["lifetime"]["queries"] == 2
    assert (
        r2.stats["lifetime"]["explored"]
        == r1.stats["explored"] + r2.stats["explored"]
    )


#: The per-query keys of a RegexSolver result's stats, besides
#: ``lifetime``.
QUERY_KEYS = {
    "explored", "vertices", "edges", "final", "closed", "alive", "dead",
    "sat_checks", "deriv_memo_hits", "deriv_memo_misses",
    "meld_memo_hits", "meld_memo_misses", "algebra_ops",
    "fuel_used", "elapsed", "interned_regexes",
    "store_hits", "store_misses",
}


def test_stats_never_depend_on_the_registry():
    """Stats are read from the layers' own counters, so a solver with
    every instrument off reports exactly what a metered one does, and
    each query's counts are the step between two lifetime readings
    (the two queries share one budget, whose total fuel ``lifetime``
    reports)."""
    runs = []
    for obs in (Observability(), Observability.disabled()):
        builder = RegexBuilder(IntervalAlgebra(127))
        solver = RegexSolver(builder, obs=obs)
        regex = parse(builder, "(a|b)*abb")
        budget = Budget()
        runs.append([
            solver.is_satisfiable(regex, budget).stats for _ in range(2)
        ])
    for stats in runs[0] + runs[1]:
        assert type(stats) is dict
        assert set(stats) == QUERY_KEYS | {"lifetime"}
    for metered, bare in zip(runs[0], runs[1]):
        assert {k: v for k, v in metered.items() if k != "elapsed"} == {
            k: v for k, v in bare.items() if k != "elapsed"
        }
    for r1, r2 in runs:
        assert r2["lifetime"]["queries"] == 2
        for key in QUERY_KEYS - {"elapsed"}:
            assert r2["lifetime"][key] - r1["lifetime"][key] == r2[key]


def test_solver_result_to_dict():
    stats = {"explored": 5}
    result = SolverResult("sat", witness="ab", stats=stats)
    out = result.to_dict()
    assert out["status"] == "sat"
    assert out["witness"] == "ab"
    assert out["stats"]["explored"] == 5
    assert "model" not in out
    json.dumps(out)  # JSON-serializable end to end


def test_disabled_obs_reports_empty_metrics():
    builder = RegexBuilder(IntervalAlgebra(127))
    solver = RegexSolver(builder, obs=Observability.disabled())
    result = solver.is_satisfiable(parse(builder, "(a|b)*abb"))
    assert result.is_sat
    assert solver.obs.metrics.snapshot() == {}
    # typed stats still work: they come from the solver's own snapshot
    # deltas, not the registry
    assert result.stats["vertices"] >= 1


def test_tracing_produces_nested_spans():
    solver, builder = make_solver(tracing=True)
    solver.is_satisfiable(parse(builder, "(a|b)*abb"))
    names = {e["name"] for e in solver.obs.tracer.events}
    assert "solver.explore" in names
    assert "deriv.tree" in names
    assert "algebra.sat_check" in names
    explore = next(
        e for e in solver.obs.tracer.events if e["name"] == "solver.explore"
    )
    assert explore["depth"] == 0
    assert any(e["depth"] > 0 for e in solver.obs.tracer.events)


def test_cli_stats_flag(capsys):
    status = main(["--stats", "check", "(a|b)*abb"])
    out = capsys.readouterr().out
    assert status == 0
    assert out.startswith("sat")
    assert "stats: " in out
    assert "solver.explored" in out


def test_cli_trace_flag_chrome(tmp_path, capsys):
    path = str(tmp_path / "trace.json")
    main(["--trace", path, "check", "(a|b)*abb"])
    out = capsys.readouterr().out
    assert "trace: wrote" in out
    events = read_chrome(path)
    assert any(e["name"] == "solver.explore" for e in events)


def test_cli_trace_flag_jsonl(tmp_path, capsys):
    path = str(tmp_path / "trace.jsonl")
    main(["--trace", path, "check", "(a|b)*abb"])
    capsys.readouterr()
    events = read_jsonl(path)
    assert any(e["name"] == "solver.explore" for e in events)
