"""TaskResult / BatchReport aggregation."""

from repro.serve import (
    BatchReport, Job, TaskResult, merge_numeric, solve_batch,
)


def test_merge_numeric_sums_scalars_only():
    acc = {}
    merge_numeric(acc, {"explored": 3, "lifetime": {"a.b": 1}, "note": "x",
                        "flag": True})
    merge_numeric(acc, {"explored": 4, "lifetime": {"a.b": 2, "c": 5}})
    assert acc == {"explored": 7}


def test_results_sorted_by_index():
    results = [
        TaskResult(2, "c", "sat"),
        TaskResult(0, "a", "unsat"),
        TaskResult(1, "b", "error", error={"type": "X", "message": "m"}),
    ]
    report = BatchReport(results, wall_s=1.0, workers=2)
    assert [r.index for r in report.results] == [0, 1, 2]
    assert report.counts == {"sat": 1, "unsat": 1, "unknown": 0, "error": 1}
    assert [r.name for r in report.errors] == ["b"]


def test_cpu_time_sums_elapsed_and_counters_merge():
    results = [
        TaskResult(0, "a", "sat", elapsed=0.5, stats={"explored": 2}),
        TaskResult(1, "b", "sat", elapsed=1.5, stats={"explored": 3}),
    ]
    report = BatchReport(results, wall_s=1.0, workers=2,
                         worker_metrics=[{"deriv.steps": 7},
                                         {"deriv.steps": 3}])
    assert report.cpu_s == 2.0
    assert report.counters["explored"] == 5
    assert report.worker_metrics == {"deriv.steps": 10}


def test_counters_sum_per_task_values_not_lifetime_readings():
    """Each pattern result carries its worker's cumulative ``lifetime``
    reading, which already includes the worker's earlier tasks: the
    batch counters sum the per-task values only."""
    patterns = ["a|b", "(ab){2,3}", "a*b", "a&b"]
    report = solve_batch(
        [Job("j%d" % i, "pattern", p) for i, p in enumerate(patterns)],
        workers=1, fuel=100000, seconds=5.0,
    )
    assert max(r.stats["lifetime"]["queries"] for r in report.results) == 4
    assert "lifetime" not in report.counters
    assert report.counters["explored"] == sum(
        r.stats["explored"] for r in report.results
    )


def test_to_dict_and_summary_line():
    report = BatchReport(
        [TaskResult(0, "a", "unknown", reason="worker reaped",
                    error={"type": "WorkerTimeout", "message": "m"})],
        wall_s=0.25, workers=1, retries=2,
    )
    out = report.to_dict()
    assert out["counts"]["unknown"] == 1
    assert out["results"][0]["error"]["type"] == "WorkerTimeout"
    assert out["retries"] == 2
    line = report.summary_line()
    assert "1 jobs" in line and "2 retries" in line


def test_task_result_to_dict_omits_empty_fields():
    out = TaskResult(0, "a", "sat", witness="w").to_dict()
    assert out["witness"] == "w"
    assert "error" not in out and "stats" not in out and "model" not in out
