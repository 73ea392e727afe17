#!/usr/bin/env python
"""Flight-recorder smoke test: crash + slow-query injection.

Runs a small batch — healthy jobs, one job that SIGKILLs its worker,
and one deliberately expensive intersection query — with a flight
directory attached, then asserts the recorder's end-to-end contract:

* every worker that returned a result heartbeated, and the heartbeat
  ledger survived on disk;
* the merged ``timeline.json`` exists, parses, and shows one labelled
  lane per worker process (plus the pool);
* the crash is narrated (``worker.crash`` in the pool lane, a dangling
  ``task.start`` in the dead worker's lane);
* at least one slow-query artifact was captured, and replaying it
  through the worker executor reproduces the recorded verdict;
* the ``repro status`` and ``repro replay`` CLI wrappers agree.

Run by CI next to the tier-1 suite::

    PYTHONPATH=src python scripts/smoke_flight.py
"""

import json
import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.__main__ import main as cli_main
from repro.obs.events import read_events
from repro.obs.flight import (
    events_path, list_artifacts, load_flight, replay_artifact,
)
from repro.serve import Job, solve_batch

#: Error records the pool writes itself for a worker it lost; that
#: worker may have died before its first heartbeat left the process.
POOL_WRITTEN = ("WorkerCrashed", "WorkerTimeout")


def check(condition, message):
    if not condition:
        print("smoke_flight: FAIL: %s" % message, file=sys.stderr)
        sys.exit(1)
    print("  ok: %s" % message)


def smoke_batch(flight_dir):
    print("batch: crash + slow-query injection on 2 workers, recording "
          "to %s" % flight_dir)
    jobs = [
        Job("healthy-0", "pattern", "a|b"),
        Job("boom", "crash", "kill"),
        # the injected slow query: a bounded-counter intersection that
        # explores enough derivative states to trip slow_explored
        Job("slow-unsat", "pattern", "(.*a.{8})&(.*b.{8})"),
        Job("healthy-1", "pattern", "(ab){2,3}"),
    ]
    report = solve_batch(
        jobs, workers=2, fuel=200000, seconds=10.0, retries=1,
        flight_dir=flight_dir, slow_explored=10, heartbeat_s=0.02,
    )
    check(len(report.results) == 4, "every job produced a result")
    by_name = {r.name: r for r in report.results}
    check(by_name["slow-unsat"].status == "unsat",
          "the slow query solved (unsat)")
    check(by_name["boom"].status == "error",
          "the killed task became an error record")
    check(by_name["healthy-0"].status == "sat"
          and by_name["healthy-1"].status == "sat",
          "healthy tasks are unaffected")

    beats = report.heartbeats_by_worker()
    # a worker queues its first beat before it takes a task, on the
    # channel its results travel: a result it sent proves the beat left
    solved_on = {
        r.worker for r in report.results
        if r.worker and (r.error or {}).get("type") not in POOL_WRITTEN
    }
    check(solved_on and solved_on <= set(beats),
          "every worker that returned a result heartbeated (%d beats "
          "from %s)" % (len(report.heartbeats), sorted(beats)))
    vital = report.heartbeats[0]
    check(all(k in vital for k in
              ("worker", "pid", "ts", "queue_depth", "tasks", "rss_bytes",
               "caches")),
          "heartbeats carry the full vitals envelope")
    return report


def smoke_streams(flight_dir):
    print("streams: narration survived on disk")
    flight = load_flight(flight_dir)
    check(flight["heartbeats"], "heartbeat ledger is on disk")
    pool_kinds = [e["kind"]
                  for e in read_events(events_path(flight_dir, "pool"))]
    check("pool.start" in pool_kinds and "pool.end" in pool_kinds,
          "pool lane brackets the run")
    check("worker.crash" in pool_kinds, "the crash is narrated")
    starts = [e for e in flight["events"]
              if e["kind"] == "task.start" and e["name"] == "boom"]
    ends = [e for e in flight["events"]
            if e["kind"] == "task.end" and e["name"] == "boom"]
    check(starts and not ends,
          "the dead worker's dangling task.start survived the SIGKILL")


def smoke_timeline(flight_dir):
    print("timeline: one merged trace, one lane per process")
    path = os.path.join(flight_dir, "timeline.json")
    check(os.path.exists(path), "timeline.json was written")
    with open(path, "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    lanes = {
        e["pid"]: e["args"]["name"] for e in trace["traceEvents"]
        if e.get("ph") == "M" and e.get("name") == "process_name"
    }
    worker_lanes = {p for p, label in lanes.items() if label != "pool"}
    check(len(worker_lanes) >= 2,
          "timeline has distinct worker lanes (%s)" % sorted(lanes.values()))
    span_pids = {e["pid"] for e in trace["traceEvents"]
                 if e.get("ph") == "X"}
    check(span_pids and span_pids <= worker_lanes,
          "solver spans land on their workers' lanes")
    counters = {e["name"] for e in trace["traceEvents"]
                if e.get("ph") == "C"}
    check({"rss_mb", "cache_entries", "queue_depth"} <= counters,
          "heartbeats became counter tracks")


def smoke_replay(flight_dir):
    print("replay: slow artifacts reproduce their verdicts")
    artifacts = list_artifacts(flight_dir)
    check(artifacts, "at least one slow-query artifact was captured")
    for path in artifacts:
        comparison = replay_artifact(path)
        check(comparison["match"],
              "%s replays to the recorded verdict (%s)"
              % (comparison["name"], comparison["recorded"]))


def smoke_cli(flight_dir):
    print("cli: status and replay wrappers")
    check(cli_main(["status", flight_dir]) == 0, "repro status exits 0")
    check(cli_main(["replay", flight_dir]) == 0,
          "repro replay exits 0 (all verdicts match)")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        flight_dir = os.path.join(tmp, "flight")
        smoke_batch(flight_dir)
        smoke_streams(flight_dir)
        smoke_timeline(flight_dir)
        smoke_replay(flight_dir)
        smoke_cli(flight_dir)
    print("smoke_flight: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
