"""The noise-aware regression gate: threshold semantics, the injected
slowdown fixture, report rendering, and the ``bench_ci`` entry point."""

import importlib.util
import json
import os
import sys

import pytest

from repro.bench.compare import (
    DEFAULT_TIME_ABS, DEFAULT_TIME_REL, compare, has_regressions,
    render_report,
)

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "scripts", "bench_ci.py",
)


def bench_ci():
    spec = importlib.util.spec_from_file_location("bench_ci", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cell(engine="sbd", suite="kaluza", total=40, solved=40, timeouts=0,
         wrong=0, median_s=0.2, p90_s=0.4):
    return {
        "engine": engine, "suite": suite, "total": total, "solved": solved,
        "timeouts": timeouts, "wrong": wrong,
        "timeout_rate": timeouts / total,
        "median_s": median_s, "p90_s": p90_s,
        "mean_s": median_s, "max_s": p90_s, "counters": {},
    }


def snap(seq, cells):
    return {
        "schema": 1, "seq": seq, "git": {"sha": "cafe%04d" % seq},
        "cells": cells,
    }


def test_identical_snapshots_are_clean():
    cells = {"sbd/kaluza": cell(), "sbd/slog": cell(suite="slog")}
    report = compare(snap(1, cells), snap(2, dict(cells)))
    assert not has_regressions(report)
    assert report["compared"] == 2
    assert report["improvements"] == []


def test_injected_slowdown_names_the_regressed_cell():
    """The acceptance fixture: slow one (engine, suite) cell down past
    both gates and the compare step must flag exactly that cell."""
    before = {"sbd/kaluza": cell(), "eager-sfa/slog": cell("eager-sfa", "slog")}
    after = {
        "sbd/kaluza": cell(median_s=0.6, p90_s=1.2),  # 3x, +0.4s/+0.8s
        "eager-sfa/slog": cell("eager-sfa", "slog"),
    }
    report = compare(snap(1, before), snap(2, after))
    assert has_regressions(report)
    regressed = {(e["cell"], e["metric"]) for e in report["regressions"]}
    assert regressed == {("sbd/kaluza", "median_s"), ("sbd/kaluza", "p90_s")}
    entry = next(e for e in report["regressions"] if e["metric"] == "median_s")
    assert entry["before"] == pytest.approx(0.2)
    assert entry["after"] == pytest.approx(0.6)
    assert entry["ratio"] == pytest.approx(3.0)
    text = render_report(report, snap(1, before), snap(2, after))
    assert "sbd/kaluza" in text and "median_s" in text
    assert "eager-sfa/slog" not in text


def test_absolute_floor_gates_microsecond_noise():
    """A 10x swing on a sub-millisecond cell stays under the absolute
    floor — the scheduler-jitter case the gate must not trip on."""
    before = {"sbd/kaluza": cell(median_s=0.0004, p90_s=0.001)}
    after = {"sbd/kaluza": cell(median_s=0.004, p90_s=0.01)}
    report = compare(snap(1, before), snap(2, after))
    assert not has_regressions(report)


def test_relative_gate_protects_slow_suites():
    """A +60ms drift on a 10s cell clears the absolute floor but not
    the relative gate — within noise for a suite that slow."""
    before = {"sbd/blowup": cell(suite="blowup", median_s=10.0, p90_s=12.0)}
    after = {"sbd/blowup": cell(suite="blowup", median_s=10.06, p90_s=12.06)}
    report = compare(snap(1, before), snap(2, after))
    assert not has_regressions(report)
    # both gates crossed -> regression
    after2 = {"sbd/blowup": cell(suite="blowup", median_s=13.0, p90_s=12.0)}
    report2 = compare(snap(1, before), snap(2, after2))
    assert [e["metric"] for e in report2["regressions"]] == ["median_s"]


def test_solved_drop_is_never_noise():
    before = {"sbd/kaluza": cell(solved=40)}
    after = {"sbd/kaluza": cell(solved=39, timeouts=1)}
    report = compare(snap(1, before), snap(2, after))
    metrics = [e["metric"] for e in report["regressions"]]
    assert "solved" in metrics


def test_timeout_rate_rise_regresses():
    before = {"sbd/kaluza": cell(timeouts=0)}
    after = {"sbd/kaluza": cell(solved=40, timeouts=8)}  # 20% timeout rate
    report = compare(snap(1, before), snap(2, after))
    assert any(e["metric"] == "timeout_rate" for e in report["regressions"])


def test_wrong_answer_regresses_even_when_offset():
    """A fix elsewhere in the cell (a timeout turned solved) leaves the
    solved count and timeout rate flat: the wrong answer must still
    fail the gate on its own."""
    before = {"sbd/kaluza": cell(solved=39, timeouts=1)}
    after = {"sbd/kaluza": cell(solved=39, wrong=1)}
    report = compare(snap(1, before), snap(2, after))
    assert [(e["cell"], e["metric"], e["before"], e["after"])
            for e in report["regressions"]] == [("sbd/kaluza", "wrong", 0, 1)]
    assert "wrong" in render_report(report)


def test_wrong_answer_in_added_cell_regresses():
    before = {"sbd/kaluza": cell()}
    after = {"sbd/kaluza": cell(), "sbd/new": cell(suite="new", solved=38,
                                                    wrong=2)}
    report = compare(snap(1, before), snap(2, after))
    assert report["added"] == ["sbd/new"]
    assert [(e["cell"], e["metric"], e["after"])
            for e in report["regressions"]] == [("sbd/new", "wrong", 2)]


def test_wrong_answer_gates_absolutely():
    """An unchanged wrong count is not a baseline to hold: it regresses
    in every snapshot until it is gone, across job counts too."""
    before = snap(1, {"sbd/kaluza": cell(solved=39, wrong=1)})
    after = snap(2, {"sbd/kaluza": cell(solved=39, wrong=1)})
    after["config"] = {"jobs": 2}
    report = compare(before, after)
    assert [e["metric"] for e in report["regressions"]] == ["wrong"]
    fixed = compare(before, snap(3, {"sbd/kaluza": cell()}))
    assert not has_regressions(fixed)


def test_improvements_and_cell_churn_are_reported():
    before = {"sbd/kaluza": cell(median_s=1.0, p90_s=2.0),
              "sbd/gone": cell(suite="gone")}
    after = {"sbd/kaluza": cell(median_s=0.4, p90_s=0.8),
             "sbd/new": cell(suite="new")}
    report = compare(snap(1, before), snap(2, after))
    assert not has_regressions(report)
    improved = {e["metric"] for e in report["improvements"]}
    assert improved == {"median_s", "p90_s"}
    assert report["added"] == ["sbd/new"]
    assert report["removed"] == ["sbd/gone"]
    text = render_report(report)
    assert "improvements" in text and "sbd/new" in text


def test_custom_thresholds():
    before = {"sbd/kaluza": cell(median_s=1.0, p90_s=1.0)}
    after = {"sbd/kaluza": cell(median_s=1.2, p90_s=1.0)}
    loose = compare(snap(1, before), snap(2, after))
    assert not has_regressions(loose)  # +20% < default 25%
    strict = compare(snap(1, before), snap(2, after),
                     time_rel=0.10, time_abs=0.01)
    assert [e["metric"] for e in strict["regressions"]] == ["median_s"]
    assert DEFAULT_TIME_REL == 0.25 and DEFAULT_TIME_ABS == 0.05


# -- the bench_ci entry point -------------------------------------------------


def write_snap(path, snapshot):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle)
    return str(path)


def test_bench_ci_compare_only_clean_exits_zero(tmp_path, capsys):
    module = bench_ci()
    cells = {"sbd/kaluza": cell()}
    prev = write_snap(tmp_path / "BENCH_0001.json", snap(1, cells))
    cur = write_snap(tmp_path / "BENCH_0002.json", snap(2, dict(cells)))
    assert module.main(["--compare-only", prev, cur]) == 0
    assert "no regressions" in capsys.readouterr().out


def test_bench_ci_compare_only_injected_slowdown_exits_nonzero(
        tmp_path, capsys):
    module = bench_ci()
    prev = write_snap(tmp_path / "BENCH_0001.json",
                      snap(1, {"sbd/kaluza": cell()}))
    cur = write_snap(
        tmp_path / "BENCH_0002.json",
        snap(2, {"sbd/kaluza": cell(median_s=0.9, p90_s=1.8)}),
    )
    status = module.main(["--compare-only", prev, cur])
    assert status == 1
    out = capsys.readouterr().out
    assert "regressions" in out and "sbd/kaluza" in out


def test_bench_ci_compare_only_seeded_wrong_answer_exits_nonzero(
        tmp_path, capsys):
    module = bench_ci()
    prev = write_snap(tmp_path / "BENCH_0001.json",
                      snap(1, {"sbd/kaluza": cell(solved=39, timeouts=1)}))
    cur = write_snap(tmp_path / "BENCH_0002.json",
                     snap(2, {"sbd/kaluza": cell(solved=39, wrong=1)}))
    assert module.main(["--compare-only", prev, cur]) == 1
    out = capsys.readouterr().out
    assert "sbd/kaluza" in out and "wrong" in out


def test_bench_ci_compare_only_bad_file_exits_two(tmp_path, capsys):
    module = bench_ci()
    missing = str(tmp_path / "nope.json")
    ok = write_snap(tmp_path / "BENCH_0001.json", snap(1, {}))
    assert module.main(["--compare-only", missing, ok]) == 2


def test_bench_ci_rejects_bad_root(capsys):
    module = bench_ci()
    assert module.main(["--root", "/nonexistent/dir/xyz"]) == 2


def test_timing_gates_skipped_when_job_counts_differ():
    """Wall-clock percentiles from runs with different worker counts
    are not comparable; only correctness metrics may gate."""
    before = snap(1, {"sbd/kaluza": cell()})
    before["config"] = {"jobs": 1}
    after = snap(2, {"sbd/kaluza": cell(median_s=0.9, p90_s=1.8)})
    after["config"] = {"jobs": 2}
    report = compare(before, after)
    assert not has_regressions(report)
    assert report["time_gated"] is False
    assert "timing gates skipped" in render_report(report)

    # solved drops still gate across differing job counts
    after["cells"]["sbd/kaluza"]["solved"] = 30
    report = compare(before, after)
    assert has_regressions(report)
