"""The zipfian cold-vs-warm warm-store benchmark.

Real validation traffic repeats: a handful of patterns dominate the
query stream (zipfian frequencies), which is exactly the regime the
:mod:`repro.solver.store` targets.  This module builds that workload
and times every query twice on otherwise-identical fresh solver
stacks — once with no store (a full cold rebuild of derivative rows)
and once against a pre-warmed snapshot (pure fragment replay) — then
aggregates both passes into snapshot-shaped cells (``sbd/store_cold``
and ``sbd/store_warm``) so the existing
:mod:`repro.bench.compare` gate covers the warm path with no special
cases: a warm-replay slowdown trips the same median/p90 machinery as
any other suite.

Verdict parity is asserted *inside* the run: a cold/warm status or
witness mismatch raises instead of producing a silently-wrong timing
cell.
"""

import random
import statistics
import time

from repro.alphabet import IntervalAlgebra
from repro.regex import RegexBuilder, parse
from repro.solver.engine import RegexSolver
from repro.solver.result import Budget
from repro.solver.store import SolverStore

#: The distinct pattern inventory, ordered by zipf rank (rank 0 is the
#: most frequent).  Derivative-heavy shapes — stacked conjunctions of
#: overlapping classes, bounded loops, negated factors — put many
#: distinct predicates in every state, which is where the minterm
#: partition (the superlinear part of a cold derivative build) earns
#: its cost and the warm store's replay amortizes it.  The tail keeps
#: a few cheap classic shapes so the workload is not uniformly heavy.
DISTINCT_PATTERNS = [
    "[a-w]{5,12}&~(.*[b-e][b-e].*)&[c-s]{6,10}&.*[vw].*&~(.*tt.*)",
    "[a-h]{2,12}&[d-p]{3,10}&[b-j]{4,9}&~([e-g]{4})&.*[ab]",
    "[0-9]{4,12}&[2-7]{5,10}&[1-8]{6,9}&~(.*44.*)&.*[05].*",
    "[a-p]{4,12}&[c-m]{5,11}&[e-k]{4,10}&~(.*[fg]{2}.*)&.*a",
    "[a-z]{4,11}&[e-t]{5,10}&~(.*[hj]{2}.*)&.*[kq].*&[g-r]{6,9}",
    "[a-p]{3,10}&[b-n]{4,9}&[c-m]{5,8}&~(.*[fg].*)&.*[ad].*",
    "[b-y]{4,9}&~(.*[c-f][c-f].*)&.*x.*&.{5,8}",
    "([a-m]|[g-t]){3,9}&~(.*mm.*)&~(.*gg.*)&.{4,12}",
    "([a-g]|[e-m]){4,10}&([c-j]|[h-p]){5,9}&~(.*gg.*)&.*[ak].*",
    "[a-z]{5,10}&~(.*[aeiou]{2}.*)&.*z.*&~(.*qq.*)",
    "(a|b){3,11}&~(.*abba.*)&~(.*baab.*)&.*ab",
    "(a|b)*abb(a|b)*",
]

DEFAULT_LENGTH = 60
DEFAULT_SEED = 0x5BD


def zipf_workload(length=DEFAULT_LENGTH, seed=DEFAULT_SEED, patterns=None):
    """A seeded query stream: pattern rank ``i`` drawn with weight
    ``1/(i+1)`` — the classic zipf profile of validation traffic."""
    patterns = list(patterns if patterns is not None else DISTINCT_PATTERNS)
    weights = [1.0 / (i + 1) for i in range(len(patterns))]
    rng = random.Random(seed)
    return [
        rng.choices(patterns, weights=weights)[0] for _ in range(length)
    ]


def _solve_once(pattern, store, fuel, seconds):
    """One query on a completely fresh solver stack: the only state a
    warm run may reuse is what travels through ``store``."""
    builder = RegexBuilder(IntervalAlgebra(127))
    solver = RegexSolver(builder, store=store)
    regex = parse(builder, pattern)
    started = time.perf_counter()
    result = solver.is_satisfiable(
        regex, Budget(fuel=fuel, seconds=seconds)
    )
    return time.perf_counter() - started, result


def prewarm(patterns, fuel=100000, seconds=5.0):
    """Capture every distinct pattern's fragments into a fresh store
    and return its serialized snapshot dict (what serve workers load)."""
    capture = SolverStore()
    for pattern in patterns:
        _solve_once(pattern, capture, fuel, seconds)
    return capture.to_dict()


def _cell(suite, times, solved, total, counters, budget_seconds):
    times = sorted(times)
    return {
        "engine": "sbd",
        "suite": suite,
        "total": total,
        "solved": solved,
        "timeouts": total - solved,
        "wrong": 0,
        "timeout_rate": (total - solved) / total if total else 0.0,
        "median_s": statistics.median(times) if times else budget_seconds,
        "p90_s": times[min(int(len(times) * 0.9), len(times) - 1)]
        if times else budget_seconds,
        "mean_s": statistics.fmean(times) if times else budget_seconds,
        "max_s": times[-1] if times else budget_seconds,
        "counters": counters,
    }


def run_warm_suite(length=DEFAULT_LENGTH, seed=DEFAULT_SEED, fuel=100000,
                   seconds=5.0, patterns=None):
    """Run the zipfian workload cold and warm; returns the result dict.

    ``cells`` holds the two snapshot-shaped aggregation cells;
    ``speedup`` is cold median / warm median; ``parity`` is always
    True on return (a mismatch raises ``AssertionError``)."""
    workload = zipf_workload(length=length, seed=seed, patterns=patterns)
    snapshot = prewarm(sorted(set(workload)), fuel=fuel, seconds=seconds)
    warmed = SolverStore().from_dict(snapshot)

    cold_times, warm_times = [], []
    cold_counters, warm_counters = {}, {}
    solved_cold = solved_warm = 0
    for pattern in workload:
        cold_elapsed, cold_result = _solve_once(pattern, None, fuel, seconds)
        warm_elapsed, warm_result = _solve_once(
            pattern, warmed, fuel, seconds
        )
        assert warm_result.status == cold_result.status, (
            "cold/warm verdict mismatch on %r: %s vs %s"
            % (pattern, cold_result.status, warm_result.status)
        )
        assert warm_result.witness == cold_result.witness, (
            "cold/warm witness mismatch on %r: %r vs %r"
            % (pattern, cold_result.witness, warm_result.witness)
        )
        cold_times.append(cold_elapsed)
        warm_times.append(warm_elapsed)
        for counters, result in (
            (cold_counters, cold_result), (warm_counters, warm_result),
        ):
            for key in ("explored", "sat_checks", "algebra_ops",
                        "store_hits", "store_misses"):
                counters[key] = counters.get(key, 0) + result.stats.get(key, 0)
        if not cold_result.is_unknown:
            solved_cold += 1
        if not warm_result.is_unknown:
            solved_warm += 1

    total = len(workload)
    cold_median = statistics.median(sorted(cold_times))
    warm_median = statistics.median(sorted(warm_times))
    return {
        "workload": total,
        "distinct": len(set(workload)),
        "cold_median_s": cold_median,
        "warm_median_s": warm_median,
        "speedup": cold_median / warm_median if warm_median else float("inf"),
        "store_hits": warm_counters.get("store_hits", 0),
        "store_misses": warm_counters.get("store_misses", 0),
        "parity": True,
        "cells": {
            "sbd/store_cold": _cell(
                "store_cold", cold_times, solved_cold, total,
                cold_counters, seconds,
            ),
            "sbd/store_warm": _cell(
                "store_warm", warm_times, solved_warm, total,
                warm_counters, seconds,
            ),
        },
    }
