"""The solver daemon under load: concurrency, parity, backpressure,
disconnects, and the protocol's trust boundary.

These tests start a real daemon (real worker processes) on a Unix
socket under the test's tmp dir; budgets stay small."""

import json
import socket
import threading
import time

import pytest

from repro.alphabet import IntervalAlgebra
from repro.regex import RegexBuilder, parse
from repro.serve import Job
from repro.serve.admission import AdmissionController
from repro.serve.client import DaemonClient, DaemonError
from repro.serve.daemon import SolverDaemon
from repro.solver.engine import RegexSolver
from repro.solver.result import Budget
from repro.solver.store import SolverStore

BUDGET = {"fuel": 100000, "seconds": 5.0}

PATTERNS = [
    "a|b", "a&b", "(ab){2,4}c", "~(a*)", "a*b", "~(a*)&a*",
    "(a|b)*abb", "[a-f]{2,5}&~(.*cc.*)",
]


def serial_verdicts(patterns=PATTERNS):
    builder = RegexBuilder(IntervalAlgebra())
    solver = RegexSolver(builder)
    out = {}
    for pattern in patterns:
        result = solver.is_satisfiable(
            parse(builder, pattern), Budget(**BUDGET)
        )
        out[pattern] = (result.status, result.witness)
    return out


@pytest.fixture
def daemon_path(tmp_path):
    return str(tmp_path / "daemon.sock")


def start_daemon(path, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("fuel", BUDGET["fuel"])
    kwargs.setdefault("seconds", BUDGET["seconds"])
    daemon = SolverDaemon(path=path, **kwargs)
    daemon.start()
    return daemon


class TestServing:
    def test_three_concurrent_clients_verdict_parity(self, daemon_path):
        oracle = serial_verdicts()
        daemon = start_daemon(daemon_path)
        try:
            results = [None] * 3
            errors = []

            def client_run(slot):
                try:
                    jobs = [
                        Job("s%d-%d" % (slot, i), "pattern", p)
                        for i, p in enumerate(PATTERNS)
                    ]
                    with DaemonClient(daemon_path) as client:
                        results[slot] = client.solve(jobs, timeout=60.0)
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=client_run, args=(slot,))
                for slot in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not errors, errors
            for slot, outcomes in enumerate(results):
                assert outcomes is not None
                for i, pattern in enumerate(PATTERNS):
                    reply = outcomes["s%d-%d" % (slot, i)]
                    assert reply["type"] == "result"
                    status, witness = oracle[pattern]
                    assert reply["status"] == status, pattern
                    assert reply["witness"] == witness, pattern
        finally:
            daemon.stop()

    def test_stats_report_latency_quantiles_and_store(self, daemon_path):
        daemon = start_daemon(daemon_path)
        try:
            with DaemonClient(daemon_path) as client:
                client.solve(
                    [Job("q%d" % i, "pattern", "a*b") for i in range(5)],
                    timeout=60.0,
                )
                stats = client.stats()
            assert stats["served"] == 5
            assert stats["latency"]["window"] == 5
            assert stats["latency"]["p50_s"] > 0.0
            assert stats["latency"]["p99_s"] >= stats["latency"]["p50_s"]
            assert stats["admission"]["accepted"] == 5
        finally:
            daemon.stop()

    def test_stats_latency_quantiles_are_nearest_rank(self, daemon_path):
        """Over latencies of 1..100 ms the nearest-rank p50/p90/p99 are
        50, 90 and 99 ms — not 51 ms and the maximum."""
        daemon = SolverDaemon(path=daemon_path, workers=1)
        daemon._latencies.extend(ms / 1000.0 for ms in range(100, 0, -1))
        latency = daemon.stats()["latency"]
        assert latency["window"] == 100
        assert latency["p50_s"] == pytest.approx(0.050)
        assert latency["p90_s"] == pytest.approx(0.090)
        assert latency["p99_s"] == pytest.approx(0.099)

    def test_slow_client_mid_submission_does_not_stall_others(
            self, daemon_path):
        daemon = start_daemon(daemon_path)
        try:
            # the slow client writes *half* a submission line and stalls
            slow = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            slow.connect(daemon_path)
            slow.sendall(b'{"op": "submit", "kind": "pat')
            # a normal client must still be served promptly
            with DaemonClient(daemon_path) as client:
                outcomes = client.solve(
                    [Job("fast", "pattern", "a*b")], timeout=30.0,
                )
            assert outcomes["fast"]["status"] == "sat"
            # the stalled line never became a job
            with DaemonClient(daemon_path) as client:
                stats = client.stats()
            assert stats["served"] == 1
            slow.close()
        finally:
            daemon.stop()

    def test_client_disconnect_with_jobs_in_flight(self, daemon_path):
        daemon = start_daemon(daemon_path)
        try:
            # submit, then vanish before reading any result
            ghost = DaemonClient(daemon_path)
            for i in range(4):
                ghost.submit("pattern", "(a|b)*abb", job_id="ghost-%d" % i)
            ghost.close()
            # the daemon keeps serving; the ghost's results are dropped
            # cleanly and the workers are unaffected
            with DaemonClient(daemon_path) as client:
                outcomes = client.solve(
                    [Job("after", "pattern", "a*b")], timeout=60.0,
                )
                assert outcomes["after"]["status"] == "sat"
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    stats = client.stats()
                    if stats["served"] + stats["dropped"] >= 5 \
                            and stats["queue_depth"] == 0:
                        break
                    time.sleep(0.05)
            # every ghost job ran to completion (served counts them
            # even when delivery drops); nothing is stuck in the queue
            assert stats["queue_depth"] == 0
            assert stats["served"] + stats["dropped"] >= 5
            assert stats["dropped"] >= 1
        finally:
            daemon.stop()

    def test_warm_store_hits_across_connections(self, daemon_path, tmp_path):
        storepath = str(tmp_path / "store.json")
        daemon = start_daemon(
            daemon_path, workers=1, store_path=storepath,
            store_save=storepath,
        )
        try:
            pattern = "[a-f]{2,5}&~(.*cc.*)"
            for round_no in range(3):
                with DaemonClient(daemon_path) as client:
                    client.solve(
                        [Job("r%d" % round_no, "pattern", pattern)],
                        timeout=60.0,
                    )
            with DaemonClient(daemon_path) as client:
                stats = client.stats()
            # first solve misses, later connections hit the same
            # worker's in-process store: cross-connection amortization
            assert stats["store"]["hits"] >= 2
            assert stats["store"]["hit_ratio"] >= 0.5
        finally:
            daemon.stop()


    def test_smt2_jobs_count_their_store_lookups(self, daemon_path,
                                                 tmp_path):
        """The ``stats`` op sums store lookups from result stats, so an
        smt2 job's regex sub-queries must report theirs."""
        storepath = str(tmp_path / "store.json")
        daemon = start_daemon(
            daemon_path, workers=1, store_path=storepath,
            store_save=storepath,
        )
        script = (
            '(declare-fun x () String)'
            '(assert (str.in_re x (re.inter (re.* (str.to_re "ab"))'
            ' (re.++ re.all (str.to_re "b")))))(check-sat)'
        )
        try:
            with DaemonClient(daemon_path) as client:
                for round_no in range(2):
                    client.solve(
                        [Job("s%d" % round_no, "smt2", script)],
                        timeout=60.0,
                    )
                stats = client.stats()
            # the first solve misses, the second hits the worker's store
            assert stats["store"]["misses"] == 1
            assert stats["store"]["hits"] == 1
        finally:
            daemon.stop()

    def test_recv_timeout_override_does_not_stick(self, daemon_path):
        """A per-read ``timeout`` (``solve`` passes one on every read)
        must not become the connection default that later ``stats`` and
        ``ping`` calls wait under."""
        daemon = start_daemon(daemon_path, workers=1)
        try:
            with DaemonClient(daemon_path, timeout=30.0) as client:
                client.solve([Job("t", "pattern", "a|b")], timeout=20.0)
                assert client._sock.gettimeout() == 30.0
                assert client.ping()
                client.send({"op": "ping"})
                assert client.recv(timeout=5.0)["type"] == "pong"
                assert client._sock.gettimeout() == 30.0
                with pytest.raises(DaemonError):
                    client.recv(timeout=0.05)  # nothing is pending
                assert client._sock.gettimeout() == 30.0
        finally:
            daemon.stop()


class TestBackpressure:
    def test_admission_rejection_at_the_watermark(self, daemon_path):
        admission = AdmissionController(
            max_queue=2, max_backlog_s=1000.0,
            client_capacity=100, client_refill_per_s=100.0,
        )
        daemon = start_daemon(daemon_path, workers=1, admission=admission)
        try:
            with DaemonClient(daemon_path) as client:
                # a hanging pattern keeps the worker busy while we pile
                # submissions past the watermark
                rejected = []
                for i in range(12):
                    client.submit("pattern", "[a-k]{2,9}&~(.*cc.*)",
                                  job_id="burst-%d" % i)
                resolved = 0
                deadline = time.monotonic() + 60.0
                while resolved < 12 and time.monotonic() < deadline:
                    reply = client.recv(timeout=30.0)
                    assert reply is not None
                    if reply["type"] == "result":
                        resolved += 1
                    elif reply["type"] == "overloaded":
                        resolved += 1
                        rejected.append(reply)
                # the queue limit of 2 cannot absorb a 12-deep burst
                assert rejected, "watermark never tripped"
                for reply in rejected:
                    assert reply["retry_after_s"] > 0.0
                    assert reply["reason"]
            with DaemonClient(daemon_path) as probe:
                stats = probe.stats()
            assert stats["admission"]["rejected"] == len(rejected)
            # bounded by construction: nothing ever queued past the cap
            assert stats["queue_depth"] <= 2 + 1
        finally:
            daemon.stop()

    def test_per_client_budget_exhaustion_ordering(self, daemon_path):
        # the over-budget client is degraded; the compliant client's
        # jobs are dispatched first even though they arrived second
        admission = AdmissionController(
            max_queue=1000, max_backlog_s=1e9,
            degrade_queue=1000, degrade_backlog_s=1e9,
            client_capacity=1, client_refill_per_s=0.0,
        )
        daemon = start_daemon(daemon_path, workers=1, admission=admission)
        try:
            hog = DaemonClient(daemon_path)
            polite = DaemonClient(daemon_path)
            # hog spends its only token, then keeps submitting: the
            # rest are accepted degraded (plenty of queue headroom)
            for i in range(6):
                hog.submit("pattern", "(a|b)*abb", job_id="hog-%d" % i)
            acks = [hog.recv(timeout=30.0) for _ in range(6)]
            degraded = [a for a in acks if a["type"] == "queued"
                        and a["degraded"]]
            assert len(degraded) == 5
            polite.submit("pattern", "a*b", job_id="polite-0")
            order = []

            def drain(client, prefix, want):
                got = 0
                while got < want:
                    reply = client.recv(timeout=60.0)
                    if reply["type"] == "result":
                        order.append(reply["id"])
                        got += 1

            t_hog = threading.Thread(target=drain, args=(hog, "hog", 6))
            t_polite = threading.Thread(
                target=drain, args=(polite, "polite", 1)
            )
            t_hog.start()
            t_polite.start()
            t_polite.join(timeout=60.0)
            t_hog.join(timeout=120.0)
            assert not t_hog.is_alive() and not t_polite.is_alive()
            # the compliant job finished before the hog's degraded tail
            polite_pos = order.index("polite-0")
            assert polite_pos < len(order) - 1, (
                "degraded jobs were not deprioritized: %r" % (order,)
            )
        finally:
            hog.close()
            polite.close()
            daemon.stop()


class TestTrustBoundary:
    def test_bad_json_is_an_error_not_a_crash(self, daemon_path):
        daemon = start_daemon(daemon_path)
        try:
            with DaemonClient(daemon_path) as client:
                client.send({"op": "ping"})  # prove the channel first
                assert client.recv(timeout=10.0)["type"] == "pong"
                client._sock.sendall(b"this is not json\n")
                reply = client.recv(timeout=10.0)
                assert reply["type"] == "error"
                # connection still usable
                client.send({"op": "ping"})
                assert client.recv(timeout=10.0)["type"] == "pong"
        finally:
            daemon.stop()

    def test_corrupt_store_row_never_reaches_client_as_sat(
            self, daemon_path, tmp_path):
        """Warm-store rows are trusted by root identity only.  Retarget
        a non-root row of a captured fragment to a nullable state: the
        warm solve then finds a "witness" outside the language, which
        the worker's replay must turn into a structured unknown."""
        pattern = "a{3}b"
        builder = RegexBuilder(IntervalAlgebra())
        store = SolverStore()
        RegexSolver(builder, store=store).is_satisfiable(
            parse(builder, pattern), Budget(**BUDGET)
        )
        snapshot = store.to_dict()
        (fragment,) = snapshot["fragments"]
        nullable = next(
            idx for idx, text in enumerate(fragment["states"])
            if parse(builder, text).nullable
        )
        row = next(idx for idx in sorted(fragment["rows"]) if idx != "0")
        for _ranges, targets in fragment["rows"][row]:
            targets[:] = [nullable] * len(targets)
        storepath = tmp_path / "corrupt.json"
        storepath.write_text(json.dumps(snapshot), encoding="utf-8")

        daemon = start_daemon(daemon_path, workers=1,
                              store_path=str(storepath))
        try:
            with DaemonClient(daemon_path) as client:
                outcomes = client.solve([Job("c", "pattern", pattern)],
                                        timeout=60.0)
                stats = client.stats()
            reply = outcomes["c"]
            assert stats["store"]["hits"] >= 1  # the corrupt row was used
            assert reply["status"] == "unknown"
            assert reply["witness"] is None
            assert reply["error"]["type"] == "InvalidWitness"
        finally:
            daemon.stop()

    def test_crash_kind_is_refused_by_default(self, daemon_path):
        daemon = start_daemon(daemon_path)
        try:
            with DaemonClient(daemon_path) as client:
                client.submit("crash", "kill", job_id="evil")
                reply = client.recv(timeout=10.0)
                assert reply["type"] == "error"
                assert "kind" in reply["message"]
        finally:
            daemon.stop()

    def test_duplicate_inflight_id_is_rejected(self, daemon_path):
        daemon = start_daemon(daemon_path)
        try:
            with DaemonClient(daemon_path) as client:
                client.submit("pattern", "[a-k]{2,9}&~(.*cc.*)",
                              job_id="dup")
                client.submit("pattern", "a*b", job_id="dup")
                saw_error = False
                resolved = 0
                while resolved < 1 or not saw_error:
                    reply = client.recv(timeout=30.0)
                    if reply["type"] == "error":
                        assert "in flight" in reply["message"]
                        saw_error = True
                    elif reply["type"] == "result":
                        resolved += 1
                assert saw_error
        finally:
            daemon.stop()

    def test_payload_must_be_a_string(self, daemon_path):
        daemon = start_daemon(daemon_path)
        try:
            with DaemonClient(daemon_path) as client:
                client.send({"op": "submit", "id": "x", "kind": "pattern",
                             "payload": ["not", "a", "string"]})
                reply = client.recv(timeout=10.0)
                assert reply["type"] == "error"
                assert "payload" in reply["message"]
        finally:
            daemon.stop()

    def test_oversized_line_ends_the_connection_cleanly(self, daemon_path):
        from repro.serve import daemon as daemon_mod

        daemon = start_daemon(daemon_path)
        try:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(daemon_path)
            raw.sendall(b"x" * (daemon_mod.MAX_LINE + 10) + b"\n")
            handle = raw.makefile("rb")
            line = handle.readline()
            assert b"error" in line
            assert handle.readline() == b""  # daemon closed it
            raw.close()
            # the daemon survives
            with DaemonClient(daemon_path) as client:
                assert client.ping()
        finally:
            daemon.stop()

    def test_unknown_op_is_an_error(self, daemon_path):
        daemon = start_daemon(daemon_path)
        try:
            with DaemonClient(daemon_path) as client:
                client.send({"op": "launch-missiles"})
                reply = client.recv(timeout=10.0)
                assert reply["type"] == "error"
        finally:
            daemon.stop()


class TestLifecycle:
    def test_shutdown_op_drains_in_flight_jobs(self, daemon_path):
        daemon = start_daemon(daemon_path, workers=1)
        try:
            with DaemonClient(daemon_path) as client:
                ids = [
                    client.submit("pattern", "(a|b)*abb")
                    for _ in range(3)
                ]
                client.shutdown()
                # every accepted job resolves before the daemon dies:
                # never a dropped in-flight job
                seen = set()
                while len(seen) < len(ids):
                    reply = client.recv(timeout=60.0)
                    if reply is None:
                        break
                    if reply.get("type") == "result":
                        assert reply["status"] == "sat"
                        seen.add(reply["id"])
                assert seen == set(ids)
        finally:
            daemon.stop()

    def test_shutdown_op_can_be_disabled(self, daemon_path):
        daemon = start_daemon(daemon_path, allow_shutdown=False)
        try:
            with DaemonClient(daemon_path) as client:
                client.shutdown()
                reply = client.recv(timeout=10.0)
                assert reply["type"] == "error"
                assert client.ping()
        finally:
            daemon.stop()

    def test_worker_crash_mid_serving_is_isolated(self, daemon_path):
        daemon = start_daemon(daemon_path, workers=2, allow_crash=True,
                              retries=0)
        try:
            with DaemonClient(daemon_path) as client:
                outcomes = client.solve(
                    [
                        Job("boom", "crash", "kill"),
                        Job("fine-0", "pattern", "a*b"),
                        Job("fine-1", "pattern", "a|b"),
                    ],
                    timeout=60.0,
                )
            assert outcomes["boom"]["status"] == "error"
            assert outcomes["boom"]["error"]["type"] == "WorkerCrashed"
            assert outcomes["fine-0"]["status"] == "sat"
            assert outcomes["fine-1"]["status"] == "sat"
        finally:
            daemon.stop()

    def test_tcp_ephemeral_port(self):
        daemon = SolverDaemon(host="127.0.0.1", port=0, workers=1,
                              fuel=BUDGET["fuel"],
                              seconds=BUDGET["seconds"])
        daemon.start()
        try:
            host, port = daemon.address
            assert port > 0
            with DaemonClient((host, port)) as client:
                outcomes = client.solve(
                    [Job("t", "pattern", "a*b")], timeout=30.0,
                )
            assert outcomes["t"]["status"] == "sat"
        finally:
            daemon.stop()
