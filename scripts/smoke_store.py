#!/usr/bin/env python
"""Warm-store smoke test: parity, speedup, and the stats surface.

Runs the zipfian cold-vs-warm suite (every verdict and witness checked
cold vs warm inside the run) and asserts the warm path's contract:
median warm solve at least 2x faster than cold, every warm query a
store hit, zero derivative work spent warm.  Then drives the CLI
``--store`` round-trip — capture on first run, warm hits on the
second, ``store.hits``/``store.misses`` visible under ``--stats`` —
a two-worker pool pass sharing one snapshot file, and corrupt
snapshots (a cyclic program, ``"fragments": null``, an empty guard, a
guard index out of range, a negative guard index), each of which must
still answer the cold ``sat`` within a wall bound.

Run by CI next to the tier-1 suite::

    PYTHONPATH=src python scripts/smoke_store.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from repro.__main__ import main as cli_main
from repro.alphabet import IntervalAlgebra
from repro.bench.warm import (
    DEFAULT_SEED, DISTINCT_PATTERNS, run_warm_suite, zipf_workload,
)
from repro.regex import RegexBuilder, parse
from repro.serve import Job, solve_batch
from repro.solver import Budget, RegexSolver
from repro.solver.store import SolverStore

MIN_SPEEDUP = 2.0
#: a corrupt snapshot must still get its answer within this many seconds
CORRUPT_WALL_S = 10.0


def _cyclic(snapshot):
    snapshot["fragments"][0]["code"][0] = ["l", 0, 0, None]


def _null_fragments(snapshot):
    snapshot["fragments"] = None


def _empty_guard(snapshot):
    fragment = snapshot["fragments"][0]
    row = fragment["rows"]["0"][0]
    fragment["guards"][row[0]] = [[5, 2]]


def _guard_out_of_range(snapshot):
    fragment = snapshot["fragments"][0]
    fragment["rows"]["0"][0][0] = len(fragment["guards"])


def _negative_guard(snapshot):
    snapshot["fragments"][0]["rows"]["0"][0][0] = -1


CORRUPTIONS = (
    ("cyclic program", _cyclic),
    ("null fragments", _null_fragments),
    ("empty guard", _empty_guard),
    ("guard index out of range", _guard_out_of_range),
    ("negative guard", _negative_guard),
)


def check(condition, message):
    if not condition:
        print("smoke_store: FAIL: %s" % message, file=sys.stderr)
        sys.exit(1)
    print("  ok: %s" % message)


def smoke_suite():
    print("suite: zipfian workload, cold vs pre-warmed store")
    run = run_warm_suite()
    check(run["parity"], "cold and warm verdicts/witnesses identical")
    warm = run["warm"]
    check(warm["store_hits"] == run["workload"] and warm["store_misses"] == 0,
          "every warm query hit the store (%d/%d)"
          % (warm["store_hits"], run["workload"]))
    check(warm["algebra_ops"] == 0,
          "warm pass spent zero algebra ops on derivative rebuilds")
    check(run["speedup"] >= MIN_SPEEDUP,
          "warm median %.2fx faster than cold (>= %.1fx required)"
          % (run["speedup"], MIN_SPEEDUP))


def smoke_cli(tmp):
    print("cli: --store capture, then a warm second run with --stats")
    store_path = os.path.join(tmp, "store.json")
    pattern = DISTINCT_PATTERNS[0]

    import contextlib
    import io

    def run_check():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli_main(["--store", store_path, "--stats",
                               "check", pattern])
        return status, out.getvalue()

    status, cold_out = run_check()
    check(status == 0, "cold check exits 0")
    check(os.path.exists(store_path), "--store wrote the snapshot file")
    with open(store_path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    check(len(snapshot.get("fragments", [])) >= 1,
          "snapshot holds the captured fragment")

    status, warm_out = run_check()
    check(status == 0, "warm check exits 0")
    match = re.search(
        r"store hit ratio: ([0-9.]+)% \((\d+)/(\d+) fragment lookups\)",
        warm_out,
    )
    check(match is not None, "--stats prints the store hit ratio line")
    check(match.group(1) == "100.0",
          "second run was fully warm (100%% hit ratio, got %s%%)"
          % match.group(1))
    cold_verdict = cold_out.splitlines()[0]
    warm_verdict = warm_out.splitlines()[0]
    check(cold_verdict == warm_verdict,
          "cold and warm CLI verdict lines agree (%r)" % cold_verdict)


def smoke_pool(tmp):
    print("pool: two workers sharing one snapshot file")
    store_path = os.path.join(tmp, "pool_store.json")
    workload = zipf_workload(length=16, seed=DEFAULT_SEED + 2,
                             patterns=DISTINCT_PATTERNS[:4])
    jobs = [Job("q%02d" % i, "pattern", p) for i, p in enumerate(workload)]

    capture = solve_batch(jobs, workers=2, fuel=100000, seconds=5.0,
                          store_path=store_path, store_save=store_path)
    warm = solve_batch(jobs, workers=2, fuel=100000, seconds=5.0,
                       store_path=store_path)
    check([r.status for r in capture.results]
          == [r.status for r in warm.results],
          "pool verdicts identical between capture and warm passes")
    hits = sum(
        r.get("store", {}).get("hits", 0) for r in warm.worker_reports
    )
    check(hits > 0, "warm pool pass hit the shared store (%d hits)" % hits)


def smoke_corrupt(tmp):
    print("corrupt snapshots: each check answers the cold verdict")
    pattern = "(a|b)*abb"
    builder = RegexBuilder(IntervalAlgebra())
    capture = SolverStore()
    RegexSolver(builder, store=capture).is_satisfiable(
        parse(builder, pattern), Budget(fuel=100000, seconds=5.0)
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    for name, corrupt in CORRUPTIONS:
        snapshot = json.loads(json.dumps(capture.to_dict()))
        corrupt(snapshot)
        path = os.path.join(tmp, name.replace(" ", "_") + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "--store", path, "check",
                 pattern],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                universal_newlines=True, timeout=CORRUPT_WALL_S,
            )
        except subprocess.TimeoutExpired:
            check(False, "%s: answered within %.0f s"
                  % (name, CORRUPT_WALL_S))
        check(done.returncode == 0
              and done.stdout.splitlines()[:1] == ["sat"],
              "%s: exit 0 with sat within %.0f s (exit %d, %r)"
              % (name, CORRUPT_WALL_S, done.returncode,
                 done.stdout.splitlines()[:1]))


def main():
    smoke_suite()
    with tempfile.TemporaryDirectory() as tmp:
        smoke_cli(tmp)
        smoke_pool(tmp)
        smoke_corrupt(tmp)
    print("smoke_store: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
