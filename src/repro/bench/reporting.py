"""Rendering evaluation results in the paper's formats.

``figure_4a_table`` produces the summary table (% solved, average,
median per engine per group); ``figure_4b_series`` the cumulative
time-to-solve series; ``figure_4c_table`` the benchmark inventory.
All output is plain text so the benchmark logs double as the artifact.
``records_json`` additionally exports every record — including its
per-record solver counters — as machine-readable JSON.
"""

import json

from repro.bench.harness import cumulative, summarize

GROUPS = ("NB", "B", "H")
GROUP_NAMES = {"NB": "Non-Boolean", "B": "Boolean", "H": "Handwritten"}


def figure_4a_table(records, budget_seconds, engines=None):
    """The Figure 4(a) summary table as text."""
    summary = summarize(records, budget_seconds)
    if engines is None:
        engines = sorted({r.engine for r in records})
    lines = []
    header = "%-20s" % "Solver"
    for metric in ("Solved%", "Avg(s)", "Med(s)"):
        for group in GROUPS:
            header += " %9s" % ("%s-%s" % (metric[:5], group))
    lines.append(header)
    lines.append("-" * len(header))
    for engine in engines:
        row = "%-20s" % engine
        for metric in ("solved_pct", "avg", "median"):
            for group in GROUPS:
                cell = summary.get((engine, group))
                if cell is None:
                    row += " %9s" % "-"
                elif metric == "solved_pct":
                    row += " %8.1f%%" % cell[metric]
                else:
                    row += " %9.3f" % cell[metric]
        lines.append(row)
    return "\n".join(lines)


def figure_4b_series(records, engines=None, points=20):
    """Cumulative #solved-within-t series per (engine, group).

    Returns ``{group: {engine: [(t, n), ...]}}`` decimated to at most
    ``points`` entries, plus a text rendering via :func:`render_4b`.
    """
    if engines is None:
        engines = sorted({r.engine for r in records})
    out = {}
    for group in GROUPS:
        out[group] = {}
        for engine in engines:
            times = cumulative(records, engine, group)
            series = [(t, i + 1) for i, t in enumerate(times)]
            if len(series) > points:
                step = max(len(series) // points, 1)
                series = series[::step] + [series[-1]]
            out[group][engine] = series
    return out


def render_4b(series):
    """Text rendering of the cumulative series: per engine, the time
    within which 50/75/90/99/100% of its solved benchmarks completed
    (the log-t x-axis of the paper's plot, read off at quantiles)."""
    quantiles = (0.50, 0.75, 0.90, 0.99, 1.00)
    lines = []
    for group, engines in series.items():
        lines.append("== %s ==" % GROUP_NAMES.get(group, group))
        header = "  %-20s %7s" % ("solver", "#solved")
        header += "".join(" %9s" % ("t@%d%%" % int(q * 100)) for q in quantiles)
        lines.append(header)
        for engine, points in sorted(engines.items()):
            if not points:
                lines.append("  %-20s %7d" % (engine, 0))
                continue
            total = points[-1][1]
            row = "  %-20s %7d" % (engine, total)
            times = [t for t, _ in points]
            for q in quantiles:
                idx = min(int(q * len(times)), len(times) - 1)
                row += " %8.3fs" % times[idx]
            lines.append(row)
    return "\n".join(lines)


def figure_4c_table(inventory):
    """The Figure 4(c) benchmark inventory table as text."""
    lines = ["%-26s %8s %8s" % ("Suite", "Paper", "Ours"),
             "-" * 44]
    for suite in sorted(inventory):
        cell = inventory[suite]
        lines.append("%-26s %8d %8d" % (suite, cell["paper"], cell["ours"]))
    paper_total = sum(c["paper"] for c in inventory.values())
    ours_total = sum(c["ours"] for c in inventory.values())
    lines.append("-" * 44)
    lines.append("%-26s %8d %8d" % ("total", paper_total, ours_total))
    return "\n".join(lines)


def records_json(records, budget_seconds=None):
    """Every record as a JSON-serializable dict, counters included.

    When ``budget_seconds`` is given, the per-(engine, group) summary
    is attached under ``"summary"`` with string keys.
    """
    out = {
        "records": [
            {
                "suite": r.problem.suite,
                "name": r.problem.name,
                "group": r.problem.group,
                "engine": r.engine,
                "status": r.status,
                "seconds": r.seconds,
                "outcome": r.outcome,
                "solved": r.solved,
                "stats": r.stats,
            }
            for r in records
        ],
    }
    if budget_seconds is not None:
        out["budget_seconds"] = budget_seconds
        out["summary"] = {
            "%s/%s" % key: cell
            for key, cell in summarize(records, budget_seconds).items()
        }
    return out


def write_json_payload(payload, path):
    """Write any JSON-serializable benchmark payload to ``path``.

    Every ``benchmarks/`` driver writes its JSON through here, in the
    BENCH snapshots' on-disk dialect (sorted keys, indent 1).
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def speedup_vs(records, budget_seconds, ours="sbd"):
    """Average-time ratio of every engine vs ours, per group — the
    paper's '1.54x faster than the next best solver' style numbers."""
    summary = summarize(records, budget_seconds)
    engines = sorted({r.engine for r in records})
    out = {}
    for group in GROUPS:
        base = summary.get((ours, group))
        if base is None or base["avg"] == 0:
            continue
        out[group] = {
            engine: summary[(engine, group)]["avg"] / base["avg"]
            for engine in engines
            if (engine, group) in summary and engine != ours
        }
    return out
