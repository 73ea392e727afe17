"""The zipfian cold-vs-warm store benchmark (the warm-restart story).

Validation traffic repeats: a handful of patterns dominate the stream.
:mod:`repro.bench.warm` replays such a workload twice on fresh solver
stacks — once with no store, once against a pre-warmed snapshot — and
this bench asserts the headline claims the warm store ships with:

* warm replay is at least 2x faster than a cold rebuild at the median;
* every verdict and witness is identical cold vs warm (parity is
  checked inside the suite; a mismatch raises);
* the warm pass actually ran warm (every query a store hit, zero
  algebra operations spent on derivative rebuilds);
* a worker pool fed the same workload through a shared store file
  agrees with the serial verdicts.

The per-run summary (medians, speedup, counters) is written to
``benchmarks/out/warm_store.json``.
"""

import pytest

from repro.bench.warm import (
    DEFAULT_SEED,
    DISTINCT_PATTERNS,
    run_warm_suite,
    zipf_workload,
)
from repro.serve.jobs import Job
from repro.serve.pool import solve_batch

from conftest import write_json_artifact

#: The acceptance floor: warm median must beat cold median by this
#: factor on the zipfian workload (ISSUE: warm-path speedup >= 2x).
MIN_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def warm_run():
    return run_warm_suite()


def test_warm_median_at_least_2x_faster(warm_run):
    write_json_artifact("warm_store.json", {
        "workload": warm_run["workload"],
        "distinct": warm_run["distinct"],
        "cold_median_s": warm_run["cold_median_s"],
        "warm_median_s": warm_run["warm_median_s"],
        "speedup": warm_run["speedup"],
        "cold": warm_run["cold"],
        "warm": warm_run["warm"],
    })
    assert warm_run["parity"], "cold/warm verdicts diverged"
    assert warm_run["speedup"] >= MIN_SPEEDUP, (
        "warm median %.5fs vs cold %.5fs: %.2fx < required %.1fx"
        % (warm_run["warm_median_s"], warm_run["cold_median_s"],
           warm_run["speedup"], MIN_SPEEDUP)
    )


def test_warm_pass_ran_fully_warm(warm_run):
    warm = warm_run["warm"]
    assert warm["store_hits"] == warm_run["workload"]
    assert warm["store_misses"] == 0
    # replayed rows, not rebuilt ones: no derivative work at all
    assert warm["algebra_ops"] == 0
    assert warm_run["cold"]["algebra_ops"] > 0


def test_pool_with_store_file_matches_serial(tmp_path):
    """Two workers sharing a store file (capture pass, then a warm
    pass) return the same verdict multiset as the serial suite."""
    workload = zipf_workload(length=24, seed=DEFAULT_SEED + 1,
                             patterns=DISTINCT_PATTERNS[:6])
    jobs = [Job("q%02d" % i, "pattern", p) for i, p in enumerate(workload)]
    store_file = str(tmp_path / "store.json")

    capture = solve_batch(jobs, workers=2, fuel=100000, seconds=5.0,
                          store_path=store_file, store_save=store_file)
    warm = solve_batch(jobs, workers=2, fuel=100000, seconds=5.0,
                       store_path=store_file)

    statuses = [r.status for r in capture.results]
    warm_statuses = [r.status for r in warm.results]
    assert statuses == warm_statuses
    hits = sum(
        r.get("store", {}).get("hits", 0) for r in warm.worker_reports
    )
    assert hits > 0, "warm pool pass never hit the shared store"
