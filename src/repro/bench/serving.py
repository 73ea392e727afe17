"""The concurrent-clients serving benchmark.

The daemon's product metric is not single-query solve time but the
latency *distribution* under concurrent load — what a client actually
observes between submitting a job and reading its result, with N other
clients contending for the same worker fleet.  This module measures it
end to end:

1. solve the zipfian workload serially first (the parity oracle);
2. start a :class:`~repro.serve.daemon.SolverDaemon` on a Unix socket
   with a persistent pool;
3. fan ``clients`` threads at it, each submitting its slice of the
   workload over its own connection and timing submit→result per job;
4. assert verdict/witness parity against the serial oracle (a
   mismatch *counts as wrong* in the cell — the regression gate treats
   any ``wrong > 0`` as a hard failure);
5. aggregate into two snapshot-shaped cells —

   * ``sbd/serve_latency``: the client-observed latency distribution
     (``median_s`` = p50, plus ``p90_s`` and ``p99_s``);
   * ``sbd/serve_throughput``: seconds *per query* at the measured
     aggregate throughput (``median_s`` = wall / total), so a
     throughput collapse trips the same time gates as a latency one.

Because every client opens its own connection, the warm-store hit
ratio this suite reports is the *cross-connection* amortization the
daemon exists to provide — comparable to the in-batch warm ratio of
``sbd/store_warm``.
"""

import statistics
import threading
import time

from repro.bench.warm import DISTINCT_PATTERNS, _solve_once, zipf_workload
from repro.serve.client import DaemonClient
from repro.serve.daemon import SolverDaemon

DEFAULT_CLIENTS = 3
DEFAULT_LENGTH = 48


def _serial_oracle(patterns, fuel, seconds):
    """Status/witness per distinct pattern on a fresh serial stack."""
    oracle = {}
    for pattern in patterns:
        _elapsed, result = _solve_once(pattern, None, fuel, seconds)
        oracle[pattern] = (result.status, result.witness)
    return oracle


def _percentile(sorted_values, q):
    if not sorted_values:
        return None
    return sorted_values[min(len(sorted_values) - 1,
                             int(q * len(sorted_values)))]


def _client_worker(address, patterns, out, errors):
    """One benchmark client: its own connection, its own latencies."""
    try:
        with DaemonClient(address, timeout=60.0) as client:
            ids = {}
            for i, pattern in enumerate(patterns):
                job_id = "p%d" % i
                ids[job_id] = pattern
                client.submit("pattern", pattern, job_id=job_id)
            stamps = {job_id: time.perf_counter() for job_id in ids}
            outcomes = {}
            while len(outcomes) < len(ids):
                reply = client.recv(timeout=120.0)
                if reply is None:
                    raise RuntimeError("daemon closed mid-benchmark")
                if reply.get("type") == "result":
                    job_id = reply["id"]
                    outcomes[job_id] = (
                        time.perf_counter() - stamps[job_id], reply,
                    )
                elif reply.get("type") == "overloaded":
                    raise RuntimeError(
                        "benchmark daemon rejected a job: %r"
                        % reply.get("reason")
                    )
            out.append([
                (ids[job_id], latency, reply)
                for job_id, (latency, reply) in outcomes.items()
            ])
    except Exception as exc:  # surfaced by the caller
        errors.append(exc)


def run_serving_suite(clients=DEFAULT_CLIENTS, length=DEFAULT_LENGTH,
                      fuel=100000, seconds=5.0, workers=2, seed=0x5BD,
                      patterns=None, socket_dir=None):
    """Measure serving SLOs under ``clients`` concurrent connections.

    Returns a dict with the two cells (under ``"cells"``), the raw
    quantiles, the aggregate throughput, and the cross-connection
    store hit ratio.  Any parity mismatch counts in the cells' ``wrong``
    and is also surfaced under ``"wrong"``.
    """
    import tempfile
    import os

    patterns = list(patterns if patterns is not None else DISTINCT_PATTERNS)
    workload = zipf_workload(length=length, seed=seed, patterns=patterns)
    oracle = _serial_oracle(sorted(set(workload)), fuel, seconds)

    # pin the admission ceiling above the whole workload: the benchmark
    # measures latency under load, not rejection behavior (that is the
    # admission tests' job), so a rejection here is an error
    from repro.serve.admission import AdmissionController

    admission = AdmissionController(
        max_queue=length * clients + 8,
        max_backlog_s=float("inf"),
        client_capacity=length + 8,
        client_refill_per_s=length,
    )
    if socket_dir is None:
        socket_dir = tempfile.mkdtemp(prefix="repro-serve-bench-")
    sockpath = os.path.join(str(socket_dir), "bench.sock")
    # a real store path arms worker capture *and* the pool's affinity
    # routing — repeats across connections land on the worker that
    # already compiled them, the regime the daemon exists to serve
    storepath = os.path.join(str(socket_dir), "store.json")
    daemon = SolverDaemon(
        path=sockpath, workers=workers, admission=admission,
        fuel=fuel, seconds=seconds, store_path=storepath,
        store_save=storepath,
    )
    daemon.start()
    slices = [workload[i::clients] for i in range(clients)]
    collected, errors = [], []
    started = time.perf_counter()
    try:
        threads = [
            threading.Thread(
                target=_client_worker,
                args=(sockpath, chunk, collected, errors),
            )
            for chunk in slices if chunk
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)
        wall = time.perf_counter() - started
        stats = daemon.stats()
    finally:
        daemon.stop()
    if errors:
        raise errors[0]

    latencies, wrong, solved = [], 0, 0
    total = 0
    for batch in collected:
        for pattern, latency, reply in batch:
            total += 1
            latencies.append(latency)
            status = reply.get("status")
            witness = reply.get("witness")
            want_status, want_witness = oracle[pattern]
            if status != want_status or witness != want_witness:
                wrong += 1
            elif status in ("sat", "unsat"):
                solved += 1
    latencies.sort()
    p50 = _percentile(latencies, 0.50)
    p90 = _percentile(latencies, 0.90)
    p99 = _percentile(latencies, 0.99)
    per_query = wall / total if total else None
    store = stats.get("store") or {}
    counters = {
        "clients": clients,
        "store_hits": store.get("hits") or 0,
        "store_misses": store.get("misses") or 0,
    }
    cells = {
        "sbd/serve_latency": {
            "engine": "sbd",
            "suite": "serve_latency",
            "total": total,
            "solved": solved,
            "timeouts": total - solved - wrong,
            "wrong": wrong,
            "timeout_rate": (
                (total - solved - wrong) / total if total else 0.0
            ),
            "median_s": p50,
            "p90_s": p90,
            "p99_s": p99,
            "mean_s": statistics.fmean(latencies) if latencies else None,
            "max_s": latencies[-1] if latencies else None,
            "counters": counters,
        },
        "sbd/serve_throughput": {
            "engine": "sbd",
            "suite": "serve_throughput",
            "total": total,
            "solved": solved,
            "timeouts": total - solved - wrong,
            "wrong": wrong,
            "timeout_rate": (
                (total - solved - wrong) / total if total else 0.0
            ),
            "median_s": per_query,
            "p90_s": per_query,
            "mean_s": per_query,
            "max_s": wall,
            "counters": dict(counters, wall_s=wall),
        },
    }
    lookups = counters["store_hits"] + counters["store_misses"]
    return {
        "clients": clients,
        "workload": total,
        "distinct": len(set(workload)),
        "wall_s": wall,
        "throughput_qps": total / wall if wall else None,
        "p50_s": p50,
        "p90_s": p90,
        "p99_s": p99,
        "wrong": wrong,
        "store_hits": counters["store_hits"],
        "store_misses": counters["store_misses"],
        "hit_ratio": counters["store_hits"] / lookups if lookups else None,
        "cells": cells,
    }
