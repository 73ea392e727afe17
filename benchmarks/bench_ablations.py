"""Ablations over the design choices DESIGN.md calls out:

* fused clean conditional trees vs the literal delta->NNF->lift->DNF
  pipeline (the cost of not fusing/caching);
* DFS vs BFS unfolding order (model-guided deep dives vs shortest
  witnesses);
* interval-set vs BDD character algebra on Unicode-class-heavy
  constraints.

Results land in ``benchmarks/out/ablations.txt``.
"""

import time

from repro.alphabet import BDDAlgebra, IntervalAlgebra
from repro.derivatives.condtree import DerivativeEngine
from repro.reference.dnf import delta_dnf
from repro.regex import RegexBuilder, parse
from repro.solver import Budget, RegexSolver

from conftest import write_artifact, write_json_artifact

PATTERNS = [
    r"(.*\d.*)&~(.*01.*)",
    r"\d{4}-[a-zA-Z]{3}-\d{2}&(2019.*|2020.*)",
    r"(.*a.{12})&(.*b.{12})",
    r"(.*\d.*)&(.*[a-z].*)&(.*[A-Z].*)&.{8,16}",
]


def _sweep_states(builder, regex, derive):
    """Count distinct states explored via a derivative function."""
    seen = {regex}
    stack = [regex]
    while stack:
        state = stack.pop()
        for target in derive(state):
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return len(seen)


def test_ablation_fused_vs_literal(benchmark, builder):
    regexes = [parse(builder, p) for p in PATTERNS]
    engine = DerivativeEngine(builder)

    def fused_pass():
        return sum(
            _sweep_states(builder, r, engine.successors) for r in regexes
        )

    fused_states = benchmark.pedantic(fused_pass, rounds=1, iterations=1)

    from repro.reference.dnf import successors as literal_successors

    started = time.perf_counter()
    literal_states = sum(
        _sweep_states(builder, r, lambda s: literal_successors(builder, s))
        for r in regexes
    )
    literal_time = time.perf_counter() - started
    text = (
        "fused engine:    %d states\n"
        "literal pipeline: %d states in %.3fs (uncached, unfused)"
        % (fused_states, literal_states, literal_time)
    )
    print("\n" + text)
    write_artifact("ablations_fused.txt", text)
    write_json_artifact("ablations_fused.json", {
        "fused_states": fused_states,
        "literal_states": literal_states,
        "literal_seconds": literal_time,
    })
    assert fused_states <= literal_states


def test_ablation_dfs_vs_bfs(benchmark, builder):
    # a deep satisfiable instance: DFS dives, BFS pays per level
    deep = parse(builder, "~(.*a.{13})&(a|b){13}&.*a.*")

    def dfs_solve():
        return RegexSolver(builder, strategy="dfs").is_satisfiable(
            deep, Budget(fuel=200000)
        )

    result = benchmark.pedantic(dfs_solve, rounds=1, iterations=1)
    assert result.is_sat
    dfs_fuel = result.stats["fuel_used"]

    bfs = RegexSolver(builder, strategy="bfs").is_satisfiable(
        deep, Budget(fuel=200000)
    )
    lines = ["DFS: %s with fuel %d" % (result.status, dfs_fuel)]
    if bfs.is_unknown:
        lines.append("BFS: budget exhausted (breadth explosion)")
    else:
        lines.append("BFS: %s with fuel %d" % (bfs.status, bfs.stats["fuel_used"]))
        assert bfs.stats["fuel_used"] >= dfs_fuel
    text = "\n".join(lines)
    print("\n" + text)
    write_artifact("ablations_strategy.txt", text)
    write_json_artifact("ablations_strategy.json", {
        "dfs": {"status": result.status, "fuel": dfs_fuel},
        "bfs": {"status": bfs.status,
                "fuel": None if bfs.is_unknown else bfs.stats["fuel_used"]},
    })


def test_ablation_interval_vs_bdd(benchmark):
    pattern = r"(.*\d.*)&(.*\w.*)&~(.*\s.*)&.{4,40}"

    def solve_with(algebra):
        builder = RegexBuilder(algebra)
        solver = RegexSolver(builder)
        started = time.perf_counter()
        result = solver.is_satisfiable(parse(builder, pattern), Budget(fuel=100000))
        return result.status, time.perf_counter() - started

    def interval_run():
        return solve_with(IntervalAlgebra())

    status, interval_time = benchmark.pedantic(interval_run, rounds=1, iterations=1)
    assert status == "sat"
    bdd_status, bdd_time = solve_with(BDDAlgebra(bits=16))
    assert bdd_status == "sat"
    text = (
        "interval algebra: sat in %.4fs\n"
        "BDD algebra:      sat in %.4fs" % (interval_time, bdd_time)
    )
    print("\n" + text)
    write_artifact("ablations_algebra.txt", text)
    write_json_artifact("ablations_algebra.json", {
        "interval_s": interval_time, "bdd_s": bdd_time,
    })
