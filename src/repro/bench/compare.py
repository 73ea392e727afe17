"""Noise-aware comparison of consecutive BENCH snapshots.

:func:`compare` diffs two snapshots cell by cell and classifies each
(engine, suite) pair as regressed, improved, or unchanged.  Timing
deltas are *noise-gated*: a cell only regresses when its median (or
p90) grew by more than ``time_rel`` **relative** AND more than
``time_abs`` seconds **absolute** — the absolute floor keeps
microsecond-scale suites from tripping the gate on scheduler jitter,
the relative gate keeps slow suites from hiding real slowdowns behind
a fixed allowance.  Solved-count drops and timeout-rate rises are
never considered noise, and a cell with any wrong answer regresses
outright — compared or newly added, whatever its previous count.

``scripts/bench_ci.py`` renders :func:`render_report` and exits
nonzero via :func:`has_regressions`, which is what makes the pipeline
a CI gate.
"""

#: A timing metric regresses when it rises by >25% AND >50ms.
DEFAULT_TIME_REL = 0.25
DEFAULT_TIME_ABS = 0.05
#: Any drop in solved count is a regression.
DEFAULT_SOLVED_DROP = 1
#: Timeout-rate rises above 10 percentage points regress even when the
#: medians stay put (mass moving into the budget cap).
DEFAULT_TIMEOUT_RATE_RISE = 0.10

#: The per-cell timing metrics the gate compares.
TIME_METRICS = ("median_s", "p90_s")


def _delta(cell, metric, before, after, **extra):
    entry = {
        "cell": cell,
        "metric": metric,
        "before": before,
        "after": after,
        "delta": after - before,
    }
    entry.update(extra)
    return entry


def compare(prev, cur, time_rel=DEFAULT_TIME_REL, time_abs=DEFAULT_TIME_ABS,
            solved_drop=DEFAULT_SOLVED_DROP,
            timeout_rate_rise=DEFAULT_TIMEOUT_RATE_RISE):
    """Diff two snapshot dicts; returns the classified delta report.

    The result maps ``"regressions"`` / ``"improvements"`` to lists of
    per-cell delta entries (``cell``, ``metric``, ``before``, ``after``,
    ``delta``, and ``ratio`` for timing metrics), and ``"added"`` /
    ``"removed"`` to cell names present in only one snapshot.
    """
    prev_cells = prev.get("cells", {})
    cur_cells = cur.get("cells", {})
    # Timing is only comparable like-for-like.  BENCH_0001/0002 were
    # collected on a worker pool (config.jobs = 2), whose scheduling and
    # contention say nothing about the solver; snapshots since run the
    # matrix serially and write no jobs entry, read here as 1.
    # Correctness metrics (solved, timeout_rate, wrong) are still gated
    # — fuel budgets make those job-count independent.
    prev_jobs = prev.get("config", {}).get("jobs", 1) or 1
    cur_jobs = cur.get("config", {}).get("jobs", 1) or 1
    compare_times = prev_jobs == cur_jobs
    report = {
        "regressions": [],
        "improvements": [],
        "added": sorted(set(cur_cells) - set(prev_cells)),
        "removed": sorted(set(prev_cells) - set(cur_cells)),
        "compared": 0,
        "time_gated": compare_times,
        "jobs": {"before": prev_jobs, "after": cur_jobs},
    }
    for name in sorted(cur_cells):
        before, after = prev_cells.get(name), cur_cells[name]
        if after.get("wrong", 0) > 0:
            # absolute: a fix elsewhere in the cell must not offset it
            report["regressions"].append(_delta(
                name, "wrong", (before or {}).get("wrong", 0),
                after["wrong"],
            ))
        if before is None:
            continue
        report["compared"] += 1

        solved_delta = after["solved"] - before["solved"]
        if solved_delta <= -solved_drop:
            report["regressions"].append(
                _delta(name, "solved", before["solved"], after["solved"])
            )
        elif solved_delta >= solved_drop:
            report["improvements"].append(
                _delta(name, "solved", before["solved"], after["solved"])
            )

        rate_delta = after["timeout_rate"] - before["timeout_rate"]
        if rate_delta > timeout_rate_rise:
            report["regressions"].append(
                _delta(name, "timeout_rate", before["timeout_rate"],
                       after["timeout_rate"])
            )

        if not compare_times:
            continue
        for metric in TIME_METRICS:
            old = before.get(metric)
            new = after.get(metric)
            if old is None or new is None:
                continue
            diff = new - old
            ratio = new / old if old > 0 else float("inf") if new else 1.0
            if diff > time_abs and new > old * (1.0 + time_rel):
                report["regressions"].append(
                    _delta(name, metric, old, new, ratio=ratio)
                )
            elif -diff > time_abs and old > new * (1.0 + time_rel):
                report["improvements"].append(
                    _delta(name, metric, old, new, ratio=ratio)
                )
    return report


def has_regressions(report):
    return bool(report["regressions"])


def _fmt(value):
    if isinstance(value, float):
        return "%.4f" % value
    return "%d" % value


def render_report(report, prev=None, cur=None):
    """The delta report as text, regressions first, one line per cell
    finding (``engine/suite  metric  before -> after``)."""
    lines = []
    if prev is not None and cur is not None:
        lines.append(
            "bench compare: #%04d (%s) -> #%04d (%s), %d cells"
            % (prev.get("seq", 0), prev.get("git", {}).get("sha", "?")[:12],
               cur.get("seq", 0), cur.get("git", {}).get("sha", "?")[:12],
               report["compared"])
        )
    for kind in ("regressions", "improvements"):
        entries = report[kind]
        if not entries:
            continue
        lines.append("%s (%d):" % (kind, len(entries)))
        for entry in entries:
            line = "  %-32s %-13s %s -> %s" % (
                entry["cell"], entry["metric"],
                _fmt(entry["before"]), _fmt(entry["after"]),
            )
            if "ratio" in entry:
                line += "  (%.2fx)" % entry["ratio"]
            lines.append(line)
    for kind in ("added", "removed"):
        if report[kind]:
            lines.append("%s cells: %s" % (kind, ", ".join(report[kind])))
    if not report.get("time_gated", True):
        jobs = report.get("jobs", {})
        lines.append(
            "timing gates skipped: job counts differ (%s -> %s); only "
            "wrong/solved/timeout_rate were compared"
            % (jobs.get("before", "?"), jobs.get("after", "?"))
        )
    if not report["regressions"]:
        lines.append("no regressions (rel>%.0f%% and abs>%.3fs gates)"
                     % (DEFAULT_TIME_REL * 100, DEFAULT_TIME_ABS))
    return "\n".join(lines)
