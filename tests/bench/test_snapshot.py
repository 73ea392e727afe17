"""BENCH snapshot building: cell aggregation, the BENCH_<seq>.json
sequence, provenance stamping, and per-suite subsampling."""

import json
import os
import subprocess

import pytest

from repro.bench.harness import Problem, Record
from repro.bench.snapshot import (
    SCHEMA_VERSION, aggregate_cells, build_snapshot, host_info,
    list_snapshots, load_snapshot, next_seq, previous_snapshot,
    snapshot_path, subsample, suite_key, write_snapshot,
)


def rec(engine, suite, seconds, outcome="correct", group="NB", stats=None,
        name=None):
    problem = Problem(name or "p", suite, group, formula=None)
    status = "sat" if outcome in ("correct", "unchecked") else "unknown"
    return Record(problem, engine, status, seconds, outcome, stats or {})


def test_aggregate_cells_median_p90_and_rates():
    records = [
        rec("sbd", "kaluza", t / 100.0) for t in range(1, 11)  # 0.01..0.10
    ] + [
        rec("sbd", "kaluza", 1.0, outcome="timeout"),
        rec("sbd", "slog", 0.02),
    ]
    cells = aggregate_cells(records, budget_seconds=2.0)
    assert set(cells) == {"sbd/kaluza", "sbd/slog"}
    cell = cells["sbd/kaluza"]
    assert cell["total"] == 11
    assert cell["solved"] == 10
    assert cell["timeouts"] == 1
    assert cell["timeout_rate"] == pytest.approx(1 / 11)
    # the timeout is charged the full 2s budget
    assert cell["max_s"] == 2.0
    assert cell["median_s"] == pytest.approx(0.06)
    # nearest-rank p90 of 11 sorted samples = the 10th (0.10)
    assert cell["p90_s"] == pytest.approx(0.10)


def test_aggregate_cells_sums_counters_and_nested_metrics():
    records = [
        rec("sbd", "norn", 0.01,
            stats={"case_splits": 2, "metrics": {"solver.explored": 5}}),
        rec("sbd", "norn", 0.01,
            stats={"case_splits": 3,
                   "metrics": {"solver.explored": 7,
                               "deriv.sizes": {"count": 1}}}),
    ]
    cell = aggregate_cells(records, 1.0)["sbd/norn_nb"]
    assert cell["counters"]["case_splits"] == 5
    assert cell["counters"]["solver.explored"] == 12
    # histogram dicts (and the nested metrics dict itself) don't sum
    assert "deriv.sizes" not in cell["counters"]
    assert "metrics" not in cell["counters"]


def test_suite_key_splits_norn_by_group():
    assert suite_key(Problem("x", "norn", "NB", None)) == "norn_nb"
    assert suite_key(Problem("x", "norn", "B", None)) == "norn_b"
    assert suite_key(Problem("x", "kaluza", "NB", None)) == "kaluza"


def test_wrong_answers_charged_like_timeouts():
    records = [rec("sbd", "slog", 0.01),
               rec("sbd", "slog", 0.01, outcome="wrong")]
    cell = aggregate_cells(records, 3.0)["sbd/slog"]
    assert cell["wrong"] == 1
    assert cell["solved"] == 1
    assert cell["max_s"] == 3.0


def test_snapshot_sequence_and_round_trip(tmp_path):
    root = str(tmp_path)
    assert next_seq(root) == 1
    records = [rec("sbd", "kaluza", 0.01)]
    snap1 = build_snapshot(records, 1.0, {"quick": True}, root)
    path1 = write_snapshot(snap1, root)
    assert path1.endswith("BENCH_0001.json")
    assert next_seq(root) == 2
    snap2 = build_snapshot(records, 1.0, {"quick": True}, root)
    path2 = write_snapshot(snap2, root)
    assert path2.endswith("BENCH_0002.json")

    assert [s for s, _ in list_snapshots(root)] == [1, 2]
    assert previous_snapshot(root, 2) == path1
    assert previous_snapshot(root, 1) is None

    loaded = load_snapshot(path2)
    assert loaded["seq"] == 2
    assert loaded["schema"] == SCHEMA_VERSION
    assert loaded["cells"] == json.loads(json.dumps(snap2["cells"]))


def _checkout_head():
    """``git rev-parse HEAD`` of the checkout holding this test, or
    None when git or the checkout's metadata is unavailable."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def test_snapshot_carries_provenance_and_config(tmp_path):
    # the output directory is outside the checkout: provenance must
    # still name the code that ran, not the directory written to
    snap = build_snapshot(
        [rec("sbd", "kaluza", 0.01)], 1.0,
        {"quick": False, "fuel": 7}, str(tmp_path),
    )
    assert set(snap["git"]) == {"sha", "branch"}
    head = _checkout_head()
    if head is not None:
        assert snap["git"]["sha"] == head
    assert snap["host"]["cpus"] >= 1
    assert snap["config"]["fuel"] == 7
    assert "T" in snap["created"]  # ISO-8601 UTC stamp


def test_load_snapshot_rejects_unknown_schema(tmp_path):
    path = snapshot_path(str(tmp_path), 1)
    with open(path, "w") as handle:
        json.dump({"schema": 999, "seq": 1, "cells": {}}, handle)
    with pytest.raises(ValueError):
        load_snapshot(path)


def test_host_info_shape():
    info = host_info()
    assert set(info) == {"platform", "python", "machine", "cpus"}


def test_collect_end_to_end_tiny(tmp_path):
    """The full pipeline on a heavily subsampled matrix: every engine
    and suite gets a cell, every cell is one (engine, suite) pair of
    the configured line-up, and a second run gates cleanly against the
    first."""
    from repro.bench.compare import TIME_METRICS, compare
    from repro.bench.snapshot import collect

    root = str(tmp_path)
    # 0.4s budget: the k=5 blowup instance runs ~0.19s on this tier,
    # and a 0.2s cap made the run-to-run gate below a coin flip
    snap = collect(root, quick=True, stride=60, fuel=3000, seconds=0.4)
    path = write_snapshot(snap, root)
    assert path.endswith("BENCH_0001.json")
    engines = {c["engine"] for c in snap["cells"].values()}
    assert "sbd" in engines and len(engines) >= 3
    suites = {c["suite"] for c in snap["cells"].values()}
    assert {"kaluza", "norn_nb", "norn_b", "slog"} <= suites
    # the snapshot is the engine x suite matrix and nothing else
    assert engines == set(snap["config"]["engines"])
    for name, cell in snap["cells"].items():
        assert name == "%s/%s" % (cell["engine"], cell["suite"])
    assert snap["config"]["stride"] == 60

    snap2 = collect(root, quick=True, stride=60, fuel=3000, seconds=0.4)
    write_snapshot(snap2, root)
    report = compare(snap, snap2)
    assert report["compared"] == len(snap["cells"])
    # identical workload: no structural regression, and timing noise
    # only in the metrics the gate times
    assert not any(
        e["metric"] in ("solved", "timeout_rate", "wrong")
        for e in report["regressions"]
    )
    assert all(e["metric"] in TIME_METRICS for e in report["regressions"])


def test_subsample_keeps_every_suite():
    problems = (
        [Problem("k%d" % i, "kaluza", "NB", None) for i in range(20)]
        + [Problem("s%d" % i, "slog", "NB", None) for i in range(3)]
    )
    picked = subsample(problems, stride=10)
    suites = {p.suite for p in picked}
    assert suites == {"kaluza", "slog"}
    assert len([p for p in picked if p.suite == "kaluza"]) == 2
    assert len([p for p in picked if p.suite == "slog"]) == 1
    # stride 1 is the identity
    assert subsample(problems, 1) == list(problems)
