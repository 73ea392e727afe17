"""Versioned ``BENCH_<seq>.json`` performance snapshots.

One snapshot = one full (or ``--quick``-subsampled) pass of the
standard evaluation matrix through the :mod:`repro.bench.harness`,
aggregated per (engine, suite) cell and stamped with provenance —
git SHA, host info, budget configuration — so the sequence of
``BENCH_0001.json``, ``BENCH_0002.json``, ... at the repo root *is*
the project's performance trajectory.  Each cell records::

    {"engine": "sbd", "suite": "kaluza", "total": 45, "solved": 45,
     "timeouts": 0, "wrong": 0, "timeout_rate": 0.0,
     "median_s": 0.004, "p90_s": 0.011, "mean_s": ..., "max_s": ...,
     "counters": {"case_splits": ..., "explored": ...,
                  "solver.explored": ..., "deriv.sat_checks": ...,
                  "cache.entries_total": ..., ...}}

where ``counters`` sums the per-record counters the harness captures
on every :class:`~repro.bench.harness.Record`: the result's stats
(``case_splits`` plus the summed per-query counts of the regex
sub-queries, bare names) and the solver's registry snapshot (dotted
names; the ``cache.*`` levels aggregate as their peak).  The snapshot
additionally embeds a span-derived profile of the reference engine
(:func:`repro.obs.profile.profile_summary`), so each entry records
*where* the time went, not just how much was spent.

:mod:`repro.bench.compare` consumes consecutive snapshots;
``scripts/bench_ci.py`` is the command-line entry point and CI gate.
"""

import json
import os
import platform
import re
import statistics
import subprocess
import time

from repro.alphabet import IntervalAlgebra
from repro.bench.engines import default_engines
from repro.bench.harness import Engine, run_matrix, run_problem
from repro.bench.suites import all_suites, label_problems
from repro.obs import Observability, percentile
from repro.obs.profile import profile_summary
from repro.regex import RegexBuilder
from repro.solver.engine import RegexSolver

SCHEMA_VERSION = 1

#: Default per-problem budgets: the full tier mirrors benchmarks/
#: (fuel keeps timeouts deterministic); the quick tier is sized for CI.
FULL_TIER = {"stride": 1, "fuel": 100000, "seconds": 1.0}
QUICK_TIER = {"stride": 6, "fuel": 20000, "seconds": 0.5}

#: At most this many problems go through the traced profile pass.
PROFILE_PROBLEMS = 40

_NAME = re.compile(r"^BENCH_(\d{4})\.json$")


def suite_key(problem):
    """The snapshot's suite axis (norn splits by group, like Fig. 4c)."""
    if problem.suite == "norn":
        return "norn_nb" if problem.group == "NB" else "norn_b"
    return problem.suite


#: Metric names under this prefix are *levels* (current cache sizes
#: the lifecycle layer reports), not event counters: summing them
#: across records would be meaningless, so they aggregate as the peak
#: observed value instead.
_LEVEL_PREFIX = "cache."


def _sum_counters(into, stats):
    for key, value in stats.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if key.startswith(_LEVEL_PREFIX):
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def aggregate_cells(records, budget_seconds):
    """Per-(engine, suite) aggregation of harness records.

    Timeouts and wrong answers are charged the full budget, following
    the paper's methodology (and ``harness.summarize``).
    """
    groups = {}
    for record in records:
        key = (record.engine, suite_key(record.problem))
        groups.setdefault(key, []).append(record)
    cells = {}
    for (engine, suite), recs in sorted(groups.items()):
        times = sorted(
            r.seconds if r.solved else budget_seconds for r in recs
        )
        solved = sum(1 for r in recs if r.solved)
        timeouts = sum(1 for r in recs if r.outcome == "timeout")
        wrong = sum(1 for r in recs if r.outcome == "wrong")
        counters = {}
        for r in recs:
            _sum_counters(counters, r.stats)
            # the engine's registry snapshot (dotted names) rides on
            # each record under "metrics"; fold its scalars in too
            metrics = r.stats.get("metrics")
            if isinstance(metrics, dict):
                _sum_counters(counters, metrics)
        counters.pop("elapsed", None)  # wall time lives on the cell
        cells["%s/%s" % (engine, suite)] = {
            "engine": engine,
            "suite": suite,
            "total": len(recs),
            "solved": solved,
            "timeouts": timeouts,
            "wrong": wrong,
            "timeout_rate": timeouts / len(recs),
            "median_s": statistics.median(times),
            "p90_s": percentile(times, 0.90),
            "mean_s": statistics.fmean(times),
            "max_s": times[-1],
            "counters": counters,
        }
    return cells


# -- provenance ---------------------------------------------------------------


def git_info(root):
    """Current commit SHA and branch, or ``"unknown"`` outside git."""
    info = {}
    for key, argv in (
        ("sha", ["git", "rev-parse", "HEAD"]),
        ("branch", ["git", "rev-parse", "--abbrev-ref", "HEAD"]),
    ):
        try:
            out = subprocess.run(
                argv, cwd=root, capture_output=True, text=True, timeout=10,
            )
            info[key] = out.stdout.strip() if out.returncode == 0 else "unknown"
        except (OSError, subprocess.SubprocessError):
            info[key] = "unknown"
    return info


def host_info():
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


# -- the BENCH_<seq>.json sequence --------------------------------------------


def snapshot_path(root, seq):
    return os.path.join(root, "BENCH_%04d.json" % seq)


def list_snapshots(root):
    """``[(seq, path), ...]`` ascending for every BENCH file in root."""
    out = []
    try:
        names = os.listdir(root)
    except OSError:
        return out
    for name in names:
        match = _NAME.match(name)
        if match:
            out.append((int(match.group(1)), os.path.join(root, name)))
    return sorted(out)


def next_seq(root):
    existing = list_snapshots(root)
    return existing[-1][0] + 1 if existing else 1


def previous_snapshot(root, seq):
    """The newest snapshot strictly older than ``seq``, or None."""
    older = [(s, p) for s, p in list_snapshots(root) if s < seq]
    return older[-1][1] if older else None


def load_snapshot(path):
    with open(path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    if snapshot.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            "unsupported snapshot schema %r in %s"
            % (snapshot.get("schema"), path)
        )
    return snapshot


def write_snapshot(snapshot, root):
    """Write to ``BENCH_<seq>.json`` under root; returns the path."""
    path = snapshot_path(root, snapshot["seq"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def build_snapshot(records, budget_seconds, config, root, seq=None,
                   profile=None, timing=None):
    """Assemble the snapshot dict (no I/O beyond git provenance)."""
    snapshot = {
        "schema": SCHEMA_VERSION,
        "seq": seq if seq is not None else next_seq(root),
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git": git_info(root),
        "host": host_info(),
        "config": dict(config),
        "cells": aggregate_cells(records, budget_seconds),
        "profile": profile,
    }
    if timing is not None:
        snapshot["timing"] = dict(timing)
    return snapshot


# -- collection ---------------------------------------------------------------


def subsample(problems, stride):
    """Every ``stride``-th problem *per suite*, preserving order — so a
    quick tier keeps every suite represented instead of truncating."""
    if stride <= 1:
        return list(problems)
    by_suite = {}
    for problem in problems:
        by_suite.setdefault(suite_key(problem), []).append(problem)
    out = []
    for suite in sorted(by_suite):
        out.extend(by_suite[suite][::stride])
    return out


def profile_pass(problems, builder, fuel, seconds, max_problems=PROFILE_PROBLEMS):
    """Run the reference engine over a bounded problem sample with
    tracing on; returns the span records for attribution.

    The per-problem solvers share one span recorder, so the records
    accumulate into a single stream covering the whole pass.
    """
    obs = Observability.tracing()
    engine = Engine("sbd", lambda b: RegexSolver(b, obs=obs))
    step = max(1, len(problems) // max_problems) if max_problems else 1
    for problem in problems[::step]:
        run_problem(engine, builder, problem, fuel=fuel, seconds=seconds)
    return obs.tracer.events


def collect(root, quick=False, stride=None, fuel=None, seconds=None,
            with_profile=True, seq=None, progress=None, jobs=1,
            with_store=True, with_serving=True):
    """Run the evaluation matrix and assemble (not write) a snapshot.

    ``quick`` selects the CI-sized tier (per-suite subsampling and a
    smaller budget); explicit ``stride``/``fuel``/``seconds`` override
    either tier.  ``jobs > 1`` fans the matrix over that many worker
    processes, every cell (lookaround ones included) in a worker (see
    :func:`repro.bench.harness.run_matrix_parallel`); verdicts stay
    identical because budgets are fuel-deterministic, but wall time is
    no longer comparable across differing job counts — the snapshot
    records both the batch wall time and the aggregate per-problem CPU
    time under ``"timing"``, plus ``config["jobs"]`` so the regression
    gate can insist on like-for-like comparisons.

    ``with_store`` additionally runs the zipfian cold-vs-warm store
    suite (:func:`repro.bench.warm.run_warm_suite`) at the tier's
    budgets and folds its ``sbd/store_cold`` / ``sbd/store_warm``
    cells into the snapshot, so the regression gate covers warm-replay
    performance the same way it covers every other suite.

    ``with_serving`` additionally runs the concurrent-clients daemon
    suite (:func:`repro.bench.serving.run_serving_suite`) and folds
    its ``sbd/serve_latency`` / ``sbd/serve_throughput`` cells in —
    the p50/p90/p99 serving SLOs and throughput-under-load become
    gated numbers, not dashboards.
    """
    tier = QUICK_TIER if quick else FULL_TIER
    stride = tier["stride"] if stride is None else stride
    fuel = tier["fuel"] if fuel is None else fuel
    seconds = tier["seconds"] if seconds is None else seconds

    builder = RegexBuilder(IntervalAlgebra())
    problems = subsample(all_suites(builder), stride)
    label_problems(builder, problems)
    engines = default_engines()
    matrix_started = time.perf_counter()
    records = run_matrix(
        engines, problems, builder, fuel=fuel, seconds=seconds,
        progress=progress, jobs=jobs,
    )
    timing = {
        "wall_s": time.perf_counter() - matrix_started,
        "cpu_s": sum(r.seconds for r in records),
    }
    profile = None
    if with_profile:
        events = profile_pass(problems, builder, fuel, seconds)
        profile = profile_summary(events)
    config = {
        "quick": bool(quick),
        "stride": stride,
        "fuel": fuel,
        "seconds": seconds,
        "jobs": jobs,
        "engines": [e.name for e in engines],
        "problems": len(problems),
    }
    snapshot = build_snapshot(
        records, seconds, config, root, seq=seq, profile=profile,
        timing=timing,
    )
    if with_store:
        from repro.bench.warm import run_warm_suite

        warm = run_warm_suite(fuel=fuel, seconds=seconds)
        snapshot["cells"].update(warm["cells"])
        snapshot["config"]["store"] = {
            "workload": warm["workload"],
            "distinct": warm["distinct"],
            "speedup": round(warm["speedup"], 3),
        }
    if with_serving:
        from repro.bench.serving import run_serving_suite

        serving = run_serving_suite(fuel=fuel, seconds=seconds)
        snapshot["cells"].update(serving["cells"])
        snapshot["config"]["serving"] = {
            "clients": serving["clients"],
            "workload": serving["workload"],
            "throughput_qps": round(serving["throughput_qps"], 2)
            if serving["throughput_qps"] else None,
            "hit_ratio": round(serving["hit_ratio"], 3)
            if serving["hit_ratio"] is not None else None,
        }
    return snapshot
