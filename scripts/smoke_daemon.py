#!/usr/bin/env python
"""End-to-end smoke test for the persistent solver daemon.

Spins up one daemon on a unix socket and drives it the way real
traffic would, asserting the serving contract the tier-1 suite can
only cover piecewise:

* three concurrent clients, one of them deliberately over its token
  budget — every job still resolves, and the over-budget client's
  tail lands *after* the compliant clients' jobs (degraded banding);
* verdict and witness parity against a serial ``solve_batch`` oracle
  over the same workload, served by two workers over a warm store
  that captures what they learn (repeats across connections hit it),
  with the serving recorded as a flight whose pool lane holds the
  daemon's own events and which ``repro status`` renders;
* a worker-crash injection mid-traffic — the crash is isolated to its
  own job (structured ``error``), the fleet replaces the worker, and
  jobs after the crash still resolve correctly;
* a tiny-queue daemon under a burst — overload produces structured
  ``overloaded`` rejections with a positive ``retry_after_s`` hint,
  never an unbounded queue and never a dropped in-flight job.

Run by CI next to the tier-1 suite::

    PYTHONPATH=src python scripts/smoke_daemon.py
"""

import os
import sys
import tempfile
import threading

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.__main__ import main as cli_main
from repro.obs.events import read_events
from repro.obs.flight import events_path
from repro.serve import (
    AdmissionController, DaemonClient, Job, SolverDaemon, solve_batch,
)

BUDGET = {"fuel": 200000, "seconds": 10.0}

#: Workload with a known mixed verdict profile (sat / unsat / witness).
PATTERNS = [
    "a*b",
    "(a|b)*abb",
    "a&b",
    "(ab){2,4}c",
    "[a-f]{2,5}&~(.*cc.*)",
    "~(a*)&a*",
    "a{3,}&~(a{4,})",
    "(a|b)*&~((a|b)*a(a|b)*)",
]


def check(condition, message):
    if not condition:
        print("smoke_daemon: FAIL: %s" % message, file=sys.stderr)
        sys.exit(1)
    print("  ok: %s" % message)


def serial_oracle():
    jobs = [
        Job("o%d" % i, "pattern", pattern)
        for i, pattern in enumerate(PATTERNS)
    ]
    report = solve_batch(jobs, workers=1, **BUDGET)
    return {
        PATTERNS[result.index]: (result.status, result.witness)
        for result in report.results
    }


def smoke_concurrent_parity(sock_path, oracle, flight_dir, store_path):
    print("daemon: 3 concurrent clients, one over budget, parity check, "
          "store-backed, recording to %s" % flight_dir)
    # every client gets 6 tokens and no refill: the polite clients (6
    # jobs each) stay exactly in budget, the hog's second half is
    # admitted degraded (the queue stays far below the soft watermark,
    # so nothing is rejected)
    admission = AdmissionController(
        max_queue=512, max_backlog_s=3600.0,
        client_capacity=6, client_refill_per_s=0.0,
    )
    resolve_order = []
    order_lock = threading.Lock()
    outcomes = {}

    def run_client(name, rounds):
        with DaemonClient(sock_path, timeout=30.0) as client:
            jobs = [
                Job("%s-%d" % (name, i), "pattern",
                    PATTERNS[i % len(PATTERNS)])
                for i in range(rounds)
            ]
            got = client.solve(jobs, timeout=180.0)
        with order_lock:
            outcomes.update(got)

    with SolverDaemon(path=sock_path, workers=2, admission=admission,
                      flight_dir=flight_dir, store_path=store_path,
                      store_save=store_path, **BUDGET) as daemon:
        original_send = daemon._send_result

        def tracking_send(ticket, payload, **kwargs):
            with order_lock:
                resolve_order.append(ticket["id"])
            return original_send(ticket, payload, **kwargs)

        daemon._send_result = tracking_send
        threads = [
            threading.Thread(target=run_client, args=("polite-a", 6)),
            threading.Thread(target=run_client, args=("polite-b", 6)),
            threading.Thread(target=run_client, args=("hog", 12)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=240.0)
            check(not thread.is_alive(), "client thread finished")
        stats = daemon.stats()

    check(len(outcomes) == 24, "all 24 jobs resolved (got %d)"
          % len(outcomes))
    wrong = []
    for job_id, outcome in outcomes.items():
        name, _, idx = job_id.rpartition("-")
        pattern = PATTERNS[int(idx) % len(PATTERNS)]
        status, witness = oracle[pattern]
        if outcome.get("status") != status:
            wrong.append((job_id, outcome.get("status"), status))
        elif status == "sat" and outcome.get("witness") != witness:
            wrong.append((job_id, outcome.get("witness"), witness))
    check(not wrong, "verdicts and witnesses match the serial oracle "
          "(%d mismatches)" % len(wrong))
    check(stats["store"]["hits"] > 0,
          "repeat patterns hit the warm store (%d hits, %d misses)"
          % (stats["store"]["hits"], stats["store"]["misses"]))
    check(stats["admission"]["degraded"] >= 6,
          "hog traffic was admitted degraded (%d jobs)"
          % stats["admission"]["degraded"])
    check(stats["admission"]["rejected"] == 0,
          "no rejections below the watermarks")
    # banding: the polite clients' last job resolves before the hog's
    # last job — degraded work waits for compliant work
    last = {
        name: max(i for i, job in enumerate(resolve_order)
                  if job.startswith(name + "-"))
        for name in ("polite-a", "polite-b", "hog")
    }
    check(last["hog"] > max(last["polite-a"], last["polite-b"]),
          "over-budget client's tail resolved after compliant clients")
    check(stats["latency"]["p99_s"] is not None
          and stats["latency"]["p50_s"] <= stats["latency"]["p99_s"],
          "latency quantiles present and ordered (p50=%.4fs p99=%.4fs)"
          % (stats["latency"]["p50_s"], stats["latency"]["p99_s"]))
    pool_kinds = [record["kind"] for record in
                  read_events(events_path(flight_dir, "pool"))]
    check({"daemon.start", "job.result", "daemon.stop"} <= set(pool_kinds),
          "the pool lane recorded the daemon's serving (%d job.result)"
          % pool_kinds.count("job.result"))
    check(cli_main(["status", flight_dir]) == 0,
          "repro status renders the daemon's flight")


def smoke_crash_isolation(sock_path, oracle):
    print("daemon: worker crash mid-traffic is isolated")
    with SolverDaemon(path=sock_path, workers=2, allow_crash=True,
                      retries=0, **BUDGET):
        with DaemonClient(sock_path, timeout=30.0) as client:
            jobs = [
                Job("pre-0", "pattern", PATTERNS[0]),
                Job("boom", "crash", "kill"),
                Job("post-0", "pattern", PATTERNS[1]),
                Job("post-1", "pattern", PATTERNS[2]),
            ]
            outcomes = client.solve(jobs, timeout=120.0)
    check(outcomes["boom"]["status"] == "error",
          "crashed job came back as a structured error")
    check("WorkerCrashed" in (outcomes["boom"].get("error") or {}).get(
        "type", ""), "error names the crash (%r)"
        % outcomes["boom"].get("error"))
    for job_id, pattern in (("pre-0", PATTERNS[0]),
                            ("post-0", PATTERNS[1]),
                            ("post-1", PATTERNS[2])):
        check(outcomes[job_id]["status"] == oracle[pattern][0],
              "%s unaffected by the crash (%s)"
              % (job_id, outcomes[job_id]["status"]))


def smoke_structured_rejection(sock_path):
    print("daemon: burst against a tiny queue produces structured "
          "rejections")
    admission = AdmissionController(
        max_queue=2, max_backlog_s=3600.0,
        client_capacity=64, client_refill_per_s=32.0,
    )
    rejections = []
    with SolverDaemon(path=sock_path, workers=1, admission=admission,
                      **BUDGET) as daemon:
        with DaemonClient(sock_path, timeout=30.0) as client:
            jobs = [
                Job("burst-%d" % i, "pattern",
                    PATTERNS[i % len(PATTERNS)])
                for i in range(16)
            ]
            outcomes = client.solve(
                jobs, timeout=240.0, max_retries=50,
                on_reject=rejections.append,
            )
        stats = daemon.stats()
    check(rejections, "the burst tripped the watermark at least once")
    malformed = [
        rejection for rejection in rejections
        if rejection.get("type") != "overloaded"
        or float(rejection.get("retry_after_s", 0)) <= 0
    ]
    check(not malformed,
          "all %d rejections are structured with a positive retry hint"
          % len(rejections))
    check(all(outcome.get("type") == "result"
              and outcome.get("status") in ("sat", "unsat")
              for outcome in outcomes.values()),
          "every burst job eventually resolved after backoff "
          "(%d rejections along the way)" % len(rejections))
    check(stats["dropped"] == 0, "no in-flight job was dropped")
    check(stats["queue_depth"] == 0, "queue drained to zero")


def main():
    oracle = serial_oracle()
    check(len(oracle) == len(PATTERNS), "serial oracle covers workload")
    with tempfile.TemporaryDirectory(prefix="smoke-daemon-") as tmp:
        smoke_concurrent_parity(os.path.join(tmp, "a.sock"), oracle,
                                os.path.join(tmp, "flight"),
                                os.path.join(tmp, "store.json"))
        smoke_crash_isolation(os.path.join(tmp, "b.sock"), oracle)
        smoke_structured_rejection(os.path.join(tmp, "c.sock"))
    print("smoke_daemon: all checks passed")


if __name__ == "__main__":
    main()
