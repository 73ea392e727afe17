"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``check PATTERN`` — satisfiability of an extended regex pattern,
  with a witness when sat;
* ``contains SUB SUP`` — language containment, with a counterexample;
* ``equiv LEFT RIGHT`` — language equivalence, with a distinguishing
  string;
* ``match PATTERN TEXT`` — full-match and leftmost-search of a text;
* ``solve FILE.smt2 ...`` — run SMT-LIB scripts (``--jobs N`` fans
  them over a pool of worker processes);
* ``batch PATH`` — batched solving of a directory of ``.smt2`` files
  or a ``.jsonl`` job file on a worker pool (``--jobs``, ``--retries``,
  ``--output results.jsonl``); exit 1 when any task errored, 2 when
  any came back unknown, 0 otherwise.  With ``--flight-dir DIR`` the
  batch records a flight: one record stream per process (events, span
  records, worker heartbeats), a merged Chrome-trace timeline, and
  replayable slow-query artifacts for tasks past ``--slow-threshold``
  / ``--slow-explored``;
* ``status DIR`` — render a flight directory as text: per-worker
  lanes, latency quantiles, top slow queries, fleet incidents;
* ``replay PATH`` — re-solve captured slow-query artifacts (one
  artifact file, or every artifact of a flight directory) through the
  same worker executor and diff the verdicts; exit 1 on any mismatch;
* ``graph PATTERN`` — print the derivative graph (add ``--dot`` for
  Graphviz output);
* ``explain PATTERN`` — solve with provenance recording: prints the
  step-by-step explanation (sat witness path or unsat closure),
  re-verifies the certificate with the independent checker (skip with
  ``--no-check``), and exports it via ``--json FILE`` /
  ``--dot FILE``;
* ``verify`` — cross-engine differential verification: replay the
  frozen corpus under ``tests/corpus/`` and run a seeded, budgeted
  fuzz campaign (``--seed``, ``--budget``, ``--jobs``) that diffs all
  four engines, checks the metamorphic identities, and shrinks any
  disagreement to a minimal reproducer; exit 1 on an unexplained
  disagreement or a corpus regression.

All commands take ``--ascii`` (7-bit domain), ``--fuel N`` and
``--seconds S`` budget flags, plus the telemetry flags ``--stats``
(print the solver's per-query counters and metrics snapshot),
``--trace FILE`` (record nested spans; ``.jsonl`` writes JSONL,
anything else the Chrome ``trace_event`` format that loads in
``chrome://tracing`` / Perfetto) and ``--profile FILE`` (write the
span-derived collapsed stacks — flamegraph.pl / speedscope input —
and print the top-K self-time hotspot table).

A typed library error raised by a command (a malformed pattern, a
construct an engine refuses) prints one ``repro: <Type>: <message>``
line on stderr and exits 2, like the operator mistakes ``status`` and
``replay`` diagnose.
"""

import argparse
import json
import sys

from repro.alphabet import IntervalAlgebra
from repro.errors import ReproError
from repro.matcher import RegexMatcher
from repro.obs import Observability, Recorder, render_hotspots, write_collapsed
from repro.regex import RegexBuilder, parse, to_pattern
from repro.smtlib.interp import run_file
from repro.solver import Budget, RegexSolver, SmtSolver
from repro.solver.smt import solve_and_replay
from repro.visualize import graph_to_dot, graph_to_text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Symbolic Boolean derivatives for extended regexes "
                    "(PLDI 2021 reproduction)",
    )
    parser.add_argument("--ascii", action="store_true",
                        help="use a 7-bit character domain instead of the BMP")
    parser.add_argument("--fuel", type=int, default=1000000,
                        help="solver step budget (default 1000000)")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="wall clock budget (default 60)")
    parser.add_argument("--stats", action="store_true",
                        help="print per-query stats and the metrics snapshot")
    parser.add_argument("--explain", action="store_true",
                        help="record verdict provenance (witness path / "
                             "unsat closure); --stats then prints the "
                             "one-line explanation summary (implied by "
                             "the explain command)")
    parser.add_argument("--store", metavar="FILE", default=None,
                        help="warm-store snapshot: load compiled fragments "
                             "from FILE before solving and save new ones "
                             "back after (check/solve/batch; see the README "
                             "warm store section)")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="record spans to FILE (.jsonl for JSONL, "
                             "anything else for Chrome trace_event)")
    parser.add_argument("--profile", metavar="FILE", default=None,
                        help="write span-derived collapsed stacks to FILE "
                             "(flamegraph.pl / speedscope format) and print "
                             "the self-time hotspot table")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="satisfiability of a pattern")
    check.add_argument("pattern")

    contains = sub.add_parser("contains", help="language containment")
    contains.add_argument("sub")
    contains.add_argument("sup")

    equiv = sub.add_parser("equiv", help="language equivalence")
    equiv.add_argument("left")
    equiv.add_argument("right")

    match = sub.add_parser("match", help="match a text against a pattern")
    match.add_argument("pattern")
    match.add_argument("text")

    solve = sub.add_parser("solve", help="run SMT-LIB scripts")
    solve.add_argument("files", nargs="+")
    solve.add_argument("--jobs", type=int, default=1,
                       help="solve the files on N worker processes "
                            "(default 1 = in-process)")

    batch = sub.add_parser(
        "batch",
        help="solve a batch (directory of .smt2 files or a .jsonl job "
             "file) on a worker pool",
    )
    batch.add_argument("path",
                       help="directory of .smt2 files, a .jsonl job file, "
                            "or a single .smt2 file")
    batch.add_argument("--jobs", type=int, default=2,
                       help="worker processes (default 2)")
    batch.add_argument("--retries", type=int, default=1,
                       help="retry budget per crashed task (default 1)")
    batch.add_argument("--output", metavar="FILE", default=None,
                       help="write per-task results as JSONL to FILE")
    batch.add_argument("--worker-max-tasks", type=int, default=None,
                       metavar="N",
                       help="recycle each worker after N tasks")
    batch.add_argument("--worker-max-rss-mb", type=int, default=None,
                       metavar="MB",
                       help="recycle a worker whose RSS reaches MB MiB")
    batch.add_argument("--worker-max-cache", type=int, default=None,
                       metavar="N",
                       help="recycle a worker whose solver caches reach "
                            "N entries")
    batch.add_argument("--worker-compact", type=int, default=None,
                       metavar="N",
                       help="compact worker solver caches past N entries "
                            "instead of letting them grow unboundedly")
    batch.add_argument("--flight-dir", metavar="DIR", default=None,
                       help="record the batch as a flight under DIR: one "
                            "events-<lane>.jsonl record stream per process "
                            "(events, spans, heartbeats), slow-query "
                            "artifacts and a merged Chrome-trace timeline")
    batch.add_argument("--slow-threshold", type=float, default=None,
                       metavar="S",
                       help="capture tasks slower than S seconds as "
                            "replayable artifacts (default 1.0 when "
                            "--flight-dir is set)")
    batch.add_argument("--slow-explored", type=int, default=None,
                       metavar="N",
                       help="also capture tasks whose solver explored "
                            "N or more derivative states")
    batch.add_argument("--heartbeat", type=float, default=None,
                       metavar="S",
                       help="seconds between worker heartbeats "
                            "(default 0.25)")
    batch.add_argument("--trace-solver", action="store_true",
                       help="also stream the solver's internal spans "
                            "into the flight (slow; debugging mode)")

    status = sub.add_parser(
        "status",
        help="render a flight directory: worker lanes, latency "
             "quantiles, slow queries, incidents",
    )
    status.add_argument("flight_dir",
                        help="flight directory recorded by "
                             "batch or serve --flight-dir")
    status.add_argument("--top", type=int, default=5,
                        help="slow queries to list (default 5)")

    replay = sub.add_parser(
        "replay",
        help="re-solve captured slow-query artifacts and diff the "
             "verdicts against the recording",
    )
    replay.add_argument("path",
                        help="a slow-query artifact .json, or a flight "
                             "directory (replays every artifact in it)")
    replay.add_argument("--json", action="store_true",
                        help="emit one JSON comparison per artifact")

    graph = sub.add_parser("graph", help="print the derivative graph")
    graph.add_argument("pattern")
    graph.add_argument("--dot", action="store_true")
    graph.add_argument("--max-states", type=int, default=50)

    explain = sub.add_parser(
        "explain",
        help="solve a pattern with provenance recording, print the "
             "step-by-step explanation, and re-verify the certificate "
             "with the independent checker",
    )
    explain.add_argument("pattern")
    explain.add_argument("--dot", metavar="FILE", default=None,
                         help="write a Graphviz view (witness path / "
                              "unsat closure highlighted) to FILE")
    explain.add_argument("--json", metavar="FILE", default=None,
                         help="write the full JSON certificate to FILE")
    explain.add_argument("--no-check", action="store_true",
                         help="skip the independent certificate check")

    serve = sub.add_parser(
        "serve",
        help="run the persistent solver daemon: a long-lived worker "
             "pool behind a Unix/TCP socket with admission control "
             "(see the README daemon section)",
    )
    serve.add_argument("--socket", metavar="PATH", default=None,
                       help="Unix socket path to listen on")
    serve.add_argument("--tcp", metavar="HOST:PORT", default=None,
                       help="TCP address to listen on instead (port 0 "
                            "binds ephemerally and prints the port)")
    serve.add_argument("--jobs", type=int, default=2,
                       help="worker processes (default 2)")
    serve.add_argument("--max-queue", type=int, default=256,
                       help="hard admission watermark: reject every "
                            "submission past this backlog (default 256)")
    serve.add_argument("--max-backlog", type=float, default=30.0,
                       metavar="S",
                       help="hard watermark on estimated backlog seconds "
                            "(default 30)")
    serve.add_argument("--client-budget", type=int, default=64,
                       metavar="N",
                       help="per-client token bucket capacity (default 64)")
    serve.add_argument("--client-refill", type=float, default=8.0,
                       metavar="PER_S",
                       help="per-client token refill rate (default 8/s)")
    serve.add_argument("--worker-max-tasks", type=int, default=None,
                       metavar="N",
                       help="recycle each worker after N tasks")
    serve.add_argument("--worker-max-rss-mb", type=int, default=None,
                       metavar="MB",
                       help="recycle a worker whose RSS reaches MB MiB")
    serve.add_argument("--worker-compact", type=int, default=None,
                       metavar="N",
                       help="compact worker solver caches past N entries")
    serve.add_argument("--flight-dir", metavar="DIR", default=None,
                       help="record the daemon's serving as a flight: "
                            "its daemon/client/job events with the pool's "
                            "in events-pool.jsonl, per-worker record "
                            "streams, slow-query artifacts and a timeline")
    serve.add_argument("--no-shutdown-op", action="store_true",
                       help="refuse the protocol's shutdown op (stop the "
                            "daemon with SIGINT instead)")

    submit = sub.add_parser(
        "submit",
        help="submit jobs to a running daemon and print the results",
    )
    submit.add_argument("--socket", metavar="PATH", default=None,
                        help="daemon Unix socket path")
    submit.add_argument("--tcp", metavar="HOST:PORT", default=None,
                        help="daemon TCP address")
    submit.add_argument("--kind", choices=("pattern", "smt2"),
                        default="pattern",
                        help="payload kind (default pattern)")
    submit.add_argument("payloads", nargs="*",
                        help="patterns (or .smt2 paths with --kind smt2; "
                             "file contents are shipped)")
    submit.add_argument("--daemon-stats", action="store_true",
                        help="also print the daemon's serving stats "
                             "(SLO quantiles, admission counters)")
    submit.add_argument("--shutdown", action="store_true",
                        help="ask the daemon to shut down after the jobs")

    verify = sub.add_parser(
        "verify",
        help="cross-engine differential verification: fuzz all four "
             "engines against each other and the metamorphic "
             "identities, replay the frozen corpus",
    )
    verify.add_argument("--seed", type=int, default=0,
                        help="campaign base seed (worker i uses seed+i)")
    verify.add_argument("--budget", type=float, default=30.0,
                        help="campaign wall-clock budget in seconds "
                             "(default 30)")
    verify.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default 2; 1 = in-process)")
    verify.add_argument("--max-cases", type=int, default=None,
                        help="stop each worker after N cases")
    verify.add_argument("--skip-corpus", action="store_true",
                        help="skip replaying tests/corpus/ entries")
    verify.add_argument("--json", action="store_true",
                        help="emit the full report as JSON")
    return parser


def _hit_ratio(hits, misses):
    """``(ratio_pct, lookups)`` or None when nothing was looked up."""
    lookups = hits + misses
    if not lookups:
        return None
    return 100.0 * hits / lookups, lookups


def _cache_ratio_line(stats):
    """The ``cache hit ratio`` line over the query's derivative and
    meld memo counters, or None when the query did no memo lookups."""
    ratio = _hit_ratio(
        stats.get("deriv_memo_hits", 0) + stats.get("meld_memo_hits", 0),
        stats.get("deriv_memo_misses", 0) + stats.get("meld_memo_misses", 0),
    )
    if ratio is None:
        return None
    pct, lookups = ratio
    return ("cache hit ratio: %.1f%% (%d/%d memo lookups: deriv %d/%d, "
            "meld %d/%d)") % (
        pct,
        stats.get("deriv_memo_hits", 0) + stats.get("meld_memo_hits", 0),
        lookups,
        stats.get("deriv_memo_hits", 0),
        stats.get("deriv_memo_hits", 0) + stats.get("deriv_memo_misses", 0),
        stats.get("meld_memo_hits", 0),
        stats.get("meld_memo_hits", 0) + stats.get("meld_memo_misses", 0),
    )


def _store_ratio_line(stats):
    """The ``store hit ratio`` line over the query's warm-store
    lookups, or None when no store was consulted."""
    hits = stats.get("store_hits", 0)
    ratio = _hit_ratio(hits, stats.get("store_misses", 0))
    if ratio is None:
        return None
    pct, lookups = ratio
    return "store hit ratio: %.1f%% (%d/%d fragment lookups)" % (
        pct, hits, lookups,
    )


def _open_store(args):
    """The warm store behind ``--store``, loaded from disk (missing
    file = cold start; malformed file = diagnostic + cold start)."""
    if not args.store:
        return None
    from repro.solver.store import SolverStore

    store = SolverStore()
    try:
        store.load(args.store)
    except (OSError, ValueError) as exc:
        print("store: starting cold, cannot load %s: %s"
              % (args.store, exc), file=sys.stderr)
    return store


def _save_store(args, store, out):
    """Persist an in-process ``--store`` back to disk, reporting the
    session's hit/miss totals.  Saved via the atomic merge path: a
    daemon or a second CLI run writing the same file concurrently is
    folded in, never clobbered."""
    try:
        store.save_merged(args.store)
    except OSError as exc:
        print("store: cannot write %s: %s" % (args.store, exc),
              file=sys.stderr)
    else:
        out.append("store: %d fragments (%d hits, %d misses) -> %s"
                   % (len(store), store.hits, store.misses, args.store))


def _pool_store_line(args, report):
    """The batch-level warm-store summary: hit/miss totals summed over
    every worker's final report."""
    stores = [w.get("store") or {} for w in report.worker_reports]
    hits = sum(s.get("hits", 0) for s in stores)
    misses = sum(s.get("misses", 0) for s in stores)
    line = "store: %d hits, %d misses -> %s" % (hits, misses, args.store)
    ratio = _hit_ratio(hits, misses)
    if ratio is not None:
        line = "store: %d hits, %d misses (%.1f%% warm) -> %s" % (
            hits, misses, ratio[0], args.store,
        )
    return line


def _stats_lines(result, obs):
    """Render ``--stats`` output: per-query counters, the cache hit
    ratio, then the metrics snapshot (sorted, non-zero entries only)."""
    lines = []
    stats = getattr(result, "stats", None) if result is not None else None
    if stats:
        stats = stats.to_dict() if hasattr(stats, "to_dict") else dict(stats)
        stats.pop("lifetime", None)
        caches = stats.pop("caches", None)
        lines.append("stats: " + " ".join(
            "%s=%s" % (key, stats[key]) for key in sorted(stats)
            if not isinstance(stats[key], dict)
        ))
        if caches:
            lines.append("caches: " + " ".join(
                "%s=%s" % (key, caches[key]) for key in sorted(caches)
            ))
        ratio_line = _cache_ratio_line(stats)
        if ratio_line:
            lines.append(ratio_line)
        store_line = _store_ratio_line(stats)
        if store_line:
            lines.append(store_line)
    explanation = getattr(result, "explanation", None)
    if explanation is not None:
        lines.append("explanation: " + explanation.summary())
    if obs is not None and obs.metrics.enabled:
        for name, value in sorted(obs.metrics.snapshot().items()):
            if value:
                lines.append("  %s = %s" % (name, value))
    return lines


def _task_line(task):
    """One output line per task result (``batch``, ``solve --jobs``,
    ``submit``), in submission order."""
    line = "%s: %s" % (task.name, task.status)
    if task.model:
        line += "  " + " ".join(
            "%s=%r" % kv for kv in sorted(task.model.items())
        )
    elif task.witness is not None:
        line += "  witness=%r" % task.witness
    if task.error:
        line += "  [%s: %s]" % (task.error["type"], task.error["message"])
    explanation = getattr(task, "explanation", None)
    if explanation is not None:
        checked = explanation.get("certificate_checked")
        if checked is False:
            line += "  [CERTIFICATE REJECTED]"
        elif checked is True:
            line += "  [certified]"
    return line


def _batch_status(report):
    """Exit code for batch runs: errors dominate unknowns."""
    counts = report.counts
    if counts["error"]:
        return 1
    if counts["unknown"]:
        return 2
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ReproError as exc:
        # a typed library error (bad pattern, refused construct, ...)
        # is a diagnosis for the operator, not a crash
        print("repro: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


def _run(args):
    algebra = IntervalAlgebra(127) if args.ascii else IntervalAlgebra()
    builder = RegexBuilder(algebra)
    budget = lambda: Budget(fuel=args.fuel, seconds=args.seconds)
    tracer = Recorder() if (args.trace or args.profile) else None
    obs = Observability(tracer=tracer) if tracer else Observability()
    out = []
    result = None
    store = None

    if args.command == "check":
        store = _open_store(args)
        solver = RegexSolver(builder, obs=obs, explain=args.explain,
                             store=store)
        result = solve_and_replay(
            solver, parse(builder, args.pattern), budget()
        )
        out.append(result.status)
        if result.is_sat:
            out.append("witness: %r" % result.witness)
        elif result.error:
            out.append("reason: %(type)s: %(message)s" % result.error)
        status = 0 if not result.is_unknown else 2
    elif args.command == "contains":
        solver = RegexSolver(builder, obs=obs, explain=args.explain)
        result = solver.contains(
            parse(builder, args.sub), parse(builder, args.sup), budget()
        )
        if result.is_sat:
            out.append("containment holds")
        elif result.is_unsat:
            out.append("containment fails; counterexample: %r" % result.witness)
        else:
            out.append("unknown (%s)" % result.reason)
        status = 0 if not result.is_unknown else 2
    elif args.command == "equiv":
        solver = RegexSolver(builder, obs=obs, explain=args.explain)
        result = solver.equivalent(
            parse(builder, args.left), parse(builder, args.right), budget()
        )
        if result.is_sat:
            out.append("equivalent")
        elif result.is_unsat:
            out.append("not equivalent; distinguishing string: %r"
                       % result.witness)
        else:
            out.append("unknown (%s)" % result.reason)
        status = 0 if not result.is_unknown else 2
    elif args.command == "match":
        matcher = RegexMatcher(builder, parse(builder, args.pattern))
        out.append("fullmatch: %s" % matcher.fullmatch(args.text))
        found = matcher.search(args.text)
        if found is None:
            out.append("search: no match")
        else:
            out.append("search: span=%s group=%r" % (found.span(), found.group()))
        if args.stats:
            dfa = matcher.dfa
            out.append(
                "dfa: steps=%d states_built=%d row_hits=%d row_misses=%d"
                % (dfa.steps, dfa.states_built, dfa.row_hits,
                   dfa.row_misses)
            )
            ratio = _hit_ratio(dfa.row_hits, dfa.row_misses)
            if ratio is not None:
                out.append("cache hit ratio: %.1f%% (%d/%d row lookups)"
                           % (ratio[0], dfa.row_hits, ratio[1]))
        status = 0
    elif args.command == "solve":
        if args.jobs > 1:
            from repro.serve import jobs_from_files, solve_batch

            report = solve_batch(
                jobs_from_files(args.files), workers=args.jobs,
                fuel=args.fuel, seconds=args.seconds,
                max_char=127 if args.ascii else None, explain=args.explain,
                store_path=args.store, store_save=args.store,
            )
            for task in report.results:
                out.append(_task_line(task))
            if args.store:
                out.append(_pool_store_line(args, report))
            status = _batch_status(report)
        else:
            status = 0
            store = _open_store(args)
            smt = SmtSolver(
                builder, RegexSolver(builder, obs=obs, explain=args.explain,
                                     store=store)
            )
            for path in args.files:
                result = run_file(builder, path, solver=smt, budget=budget())
                line = "%s: %s" % (path, result.status)
                if result.model:
                    line += "  " + " ".join(
                        "%s=%r" % kv for kv in sorted(result.model.items())
                    )
                out.append(line)
                if result.is_unknown:
                    status = 2
    elif args.command == "batch":
        from repro.serve import load_jobs, solve_batch

        jobs = load_jobs(args.path)
        if not jobs:
            print("batch: no jobs found under %s" % args.path,
                  file=sys.stderr)
            return 2
        report = solve_batch(
            jobs, workers=args.jobs, fuel=args.fuel, seconds=args.seconds,
            max_char=127 if args.ascii else None, retries=args.retries,
            max_tasks=args.worker_max_tasks,
            max_rss_mb=args.worker_max_rss_mb,
            max_cache_entries=args.worker_max_cache,
            compact_entries=args.worker_compact,
            flight_dir=args.flight_dir, slow_s=args.slow_threshold,
            slow_explored=args.slow_explored, heartbeat_s=args.heartbeat,
            trace_solver=args.trace_solver, explain=args.explain,
            store_path=args.store, store_save=args.store,
        )
        for task in report.results:
            out.append(_task_line(task))
        out.append(report.summary_line())
        if args.store:
            out.append(_pool_store_line(args, report))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                for task in report.results:
                    handle.write(json.dumps(task.to_dict(), sort_keys=True))
                    handle.write("\n")
            out.append("wrote %d results to %s"
                       % (len(report.results), args.output))
        status = _batch_status(report)
    elif args.command == "status":
        import os

        from repro.obs.flight import list_artifacts, list_streams, \
            render_status

        # a missing or empty directory is an operator mistake (wrong
        # path, flight never recorded), not a rendering problem: exit
        # with a diagnostic, never a traceback or a misleading empty
        # report.  Torn event lines inside a real flight are expected
        # (a killed worker dies mid-write) and are tolerated downstream.
        if not os.path.isdir(args.flight_dir):
            print("status: %s is not a directory (was the flight "
                  "recorded with batch --flight-dir?)" % args.flight_dir,
                  file=sys.stderr)
            return 2
        try:
            streams = list_streams(args.flight_dir)
            artifacts = list_artifacts(args.flight_dir)
            if not streams and not artifacts:
                print("status: no flight streams under %s (empty or not "
                      "a flight directory)" % args.flight_dir,
                      file=sys.stderr)
                return 2
            out.append(render_status(args.flight_dir, top=args.top))
        except (OSError, ValueError) as exc:
            print("status: cannot render %s: %s" % (args.flight_dir, exc),
                  file=sys.stderr)
            return 2
        status = 0
    elif args.command == "replay":
        import os

        from repro.obs.flight import list_artifacts, replay_artifact

        if os.path.isdir(args.path):
            paths = list_artifacts(args.path)
            if not paths:
                print("replay: no slow-query artifacts under %s" % args.path,
                      file=sys.stderr)
                return 2
        elif not os.path.exists(args.path):
            print("replay: %s does not exist" % args.path, file=sys.stderr)
            return 2
        else:
            paths = [args.path]
        status = 0
        mismatches = 0
        skipped = 0
        for path in paths:
            try:
                comparison = replay_artifact(path)
            except (OSError, ValueError) as exc:
                # unreadable or torn artifact: diagnose and move on so
                # one bad file never hides the rest of the flight
                print("replay: skipping %s: %s" % (path, exc),
                      file=sys.stderr)
                skipped += 1
                continue
            if not comparison["match"]:
                mismatches += 1
            if args.json:
                out.append(json.dumps(comparison, sort_keys=True,
                                      default=str))
            else:
                out.append("%s: recorded %s, replayed %s -> %s" % (
                    comparison["name"], comparison["recorded"],
                    comparison["replayed"],
                    "ok" if comparison["match"] else "MISMATCH",
                ))
        replayed = len(paths) - skipped
        if not args.json:
            out.append("replayed %d artifact%s, %d mismatch%s%s" % (
                replayed, "" if replayed == 1 else "s",
                mismatches, "" if mismatches == 1 else "es",
                ", %d skipped" % skipped if skipped else "",
            ))
        if mismatches:
            status = 1
        elif not replayed:
            # nothing was replayable at all — the caller pointed at
            # garbage, not at a healthy flight
            status = 2
    elif args.command == "graph":
        regex = parse(builder, args.pattern)
        render = graph_to_dot if args.dot else graph_to_text
        out.append(render(builder, regex, max_states=args.max_states))
        status = 0
    elif args.command == "explain":
        from repro.obs.explain import CertificateError, certificate_to_json
        from repro.visualize import render_explanation

        solver = RegexSolver(builder, obs=obs, explain=True)
        result = solver.is_satisfiable(parse(builder, args.pattern), budget())
        explanation = result.explanation
        status = 0 if not result.is_unknown else 2
        if not args.no_check and explanation.certifiable():
            outcome = explanation.check()
            if not outcome.ok:
                status = 1
                out.append("CERTIFICATE REJECTED by the independent checker:")
                out.extend("  " + err for err in outcome.errors)
        out.append(explanation.narrative())
        for path, render_cert in (
            (args.json, lambda: certificate_to_json(
                explanation.certificate(), indent=2)),
            (args.dot, lambda: render_explanation(explanation)),
        ):
            if not path:
                continue
            if path is args.json and not explanation.certifiable():
                print("explain: no certificate for a %s verdict"
                      % explanation.kind, file=sys.stderr)
                status = status or 2
                continue
            try:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(render_cert())
                    handle.write("\n")
            except (OSError, CertificateError) as exc:
                print("explain: cannot write %s: %s" % (path, exc),
                      file=sys.stderr)
                status = status or 1
            else:
                out.append("wrote %s" % path)
    elif args.command == "serve":
        from repro.serve.admission import AdmissionController
        from repro.serve.daemon import SolverDaemon

        if bool(args.socket) == bool(args.tcp):
            print("serve: need exactly one of --socket PATH or "
                  "--tcp HOST:PORT", file=sys.stderr)
            return 2
        host = port = None
        if args.tcp:
            host, _, port_text = args.tcp.rpartition(":")
            host = host or "127.0.0.1"
            try:
                port = int(port_text)
            except ValueError:
                print("serve: bad --tcp address %r" % args.tcp,
                      file=sys.stderr)
                return 2
        admission = AdmissionController(
            max_queue=args.max_queue, max_backlog_s=args.max_backlog,
            client_capacity=args.client_budget,
            client_refill_per_s=args.client_refill,
        )
        daemon = SolverDaemon(
            path=args.socket, host=host, port=port, workers=args.jobs,
            admission=admission, allow_shutdown=not args.no_shutdown_op,
            fuel=args.fuel, seconds=args.seconds,
            max_char=127 if args.ascii else None,
            max_tasks=args.worker_max_tasks,
            max_rss_mb=args.worker_max_rss_mb,
            compact_entries=args.worker_compact,
            flight_dir=args.flight_dir,
            store_path=args.store, store_save=args.store,
        )
        address = daemon.start()
        print("serving on %s (%d workers, queue limit %d, backlog limit "
              "%.0fs)" % (address, args.jobs, args.max_queue,
                          args.max_backlog), flush=True)
        # SIGTERM's default action would kill this process without
        # running the finally below, orphaning the worker fleet; route
        # it into the same graceful drain as Ctrl-C
        import signal as _signal

        def _on_term(signum, frame):
            print("terminated; draining", flush=True)
            daemon._stop.set()

        try:
            previous_term = _signal.signal(_signal.SIGTERM, _on_term)
        except (ValueError, OSError):  # pragma: no cover - exotic host
            previous_term = None
        try:
            while not daemon._stop.wait(0.5):
                pass
        except KeyboardInterrupt:
            print("interrupted; draining", flush=True)
        finally:
            daemon.stop()
            if previous_term is not None:
                _signal.signal(_signal.SIGTERM, previous_term)
        stats = daemon.stats()
        print("served %d job(s), dropped %d" % (
            stats["served"], stats["dropped"],
        ))
        return 0
    elif args.command == "submit":
        import os

        from repro.serve.client import DaemonClient, DaemonError
        from repro.serve.jobs import Job
        from repro.serve.report import TaskResult

        if bool(args.socket) == bool(args.tcp):
            print("submit: need exactly one of --socket PATH or "
                  "--tcp HOST:PORT", file=sys.stderr)
            return 2
        if not args.payloads and not args.daemon_stats \
                and not args.shutdown:
            print("submit: nothing to do (no payloads, no --daemon-stats, "
                  "no --shutdown)", file=sys.stderr)
            return 2
        jobs = []
        for i, payload in enumerate(args.payloads):
            if args.kind == "smt2" and os.path.exists(payload):
                with open(payload, "r", encoding="utf-8") as handle:
                    payload = handle.read()
            jobs.append(Job("job-%04d" % i, args.kind, payload))
        status = 0
        try:
            with DaemonClient(args.socket or args.tcp) as client:
                if jobs:
                    outcomes = client.solve(
                        jobs, timeout=args.seconds * max(len(jobs), 1) + 30.0,
                    )
                    for i, job in enumerate(jobs):
                        reply = outcomes.get(job.name) or {}
                        kind = reply.get("type")
                        if kind == "result":
                            task = TaskResult(
                                i, job.name, reply.get("status"),
                                witness=reply.get("witness"),
                                model=reply.get("model"),
                                error=reply.get("error"),
                            )
                            out.append(_task_line(task))
                            if task.error:
                                status = 1
                            elif task.status == "unknown":
                                status = status or 2
                        elif kind == "overloaded":
                            out.append("%s: REJECTED (%s; retry after %ss)"
                                       % (job.name, reply.get("reason"),
                                          reply.get("retry_after_s")))
                            status = 1
                        else:
                            out.append("%s: protocol error %r"
                                       % (job.name, reply.get("message")))
                            status = 1
                if args.daemon_stats:
                    stats = client.stats()
                    latency = stats.get("latency") or {}
                    out.append(
                        "daemon: uptime %.0fs served %d dropped %d "
                        "depth %d" % (
                            stats.get("uptime_s", 0.0),
                            stats.get("served", 0),
                            stats.get("dropped", 0),
                            stats.get("queue_depth", 0),
                        ))
                    out.append(
                        "latency: p50=%s p90=%s p99=%s (n=%s)" % (
                            latency.get("p50_s"), latency.get("p90_s"),
                            latency.get("p99_s"), latency.get("window"),
                        ))
                    admission = stats.get("admission") or {}
                    out.append(
                        "admission: accepted=%s degraded=%s rejected=%s"
                        % (admission.get("accepted"),
                           admission.get("degraded"),
                           admission.get("rejected")))
                    store_stats = stats.get("store") or {}
                    if store_stats.get("hits") or store_stats.get("misses"):
                        out.append("store: hits=%s misses=%s ratio=%s" % (
                            store_stats.get("hits"),
                            store_stats.get("misses"),
                            store_stats.get("hit_ratio")))
                if args.shutdown:
                    client.shutdown()
                    out.append("shutdown requested")
        except (DaemonError, OSError) as exc:
            print("submit: %s" % exc, file=sys.stderr)
            return 2
    elif args.command == "verify":
        from repro.verify import load_all, replay_entry, run_campaign

        status = 0
        if not args.skip_corpus:
            for entry in load_all():
                ok, detail = replay_entry(entry)
                out.append("corpus %s: %s (%s)" % (
                    entry["id"], "ok" if ok else "FAIL", detail,
                ))
                if not ok:
                    status = 1
        report = run_campaign(
            seed=args.seed, budget_seconds=args.budget, jobs=args.jobs,
            max_cases=args.max_cases,
        )
        if args.json:
            out.append(json.dumps(report, indent=2, sort_keys=True))
        else:
            out.append(
                "campaign: %d cases, %d findings (%d unexplained), "
                "seed=%d jobs=%d" % (
                    report["cases"], len(report["findings"]),
                    report["unexplained"], report["seed"], report["jobs"],
                )
            )
            for finding in report["findings"]:
                out.append("  [%s] %s  (shrunk: %s)" % (
                    finding["stream"], finding["pattern"],
                    finding["shrunk"],
                ))
        if report["unexplained"]:
            status = 1
    else:  # pragma: no cover - argparse enforces the choices
        status = 1

    if store is not None:
        _save_store(args, store, out)
    if args.stats:
        out.extend(_stats_lines(result, obs))
    if args.trace and tracer is not None:
        try:
            count = tracer.export(args.trace)
        except OSError as exc:
            print("trace: cannot write %s: %s" % (args.trace, exc),
                  file=sys.stderr)
            status = status or 1
        else:
            out.append("trace: wrote %d events to %s" % (count, args.trace))
    if args.profile and tracer is not None:
        events = tracer.export_events()
        try:
            count = write_collapsed(events, args.profile)
        except OSError as exc:
            print("profile: cannot write %s: %s" % (args.profile, exc),
                  file=sys.stderr)
            status = status or 1
        else:
            out.append("profile: wrote %d stacks to %s"
                       % (count, args.profile))
            out.append(render_hotspots(events))

    print("\n".join(out))
    return status


if __name__ == "__main__":
    sys.exit(main())
