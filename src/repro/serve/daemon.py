"""The persistent solver daemon: a long-lived serving front end.

One :class:`SolverDaemon` owns one persistent :class:`WorkerPool` whose
workers — and their warm store, derivative memos and lazy-DFA rows —
survive across submissions from many clients, so the cross-query store
shipped by the warm-store work finally amortizes across *connections*,
not just within one CLI batch.  Clients speak a newline-delimited JSON
protocol over a Unix or TCP socket:

Requests (one JSON object per line)::

    {"op": "submit", "id": "q1", "kind": "pattern", "payload": "a*b"}
    {"op": "stats"}
    {"op": "ping"}
    {"op": "shutdown"}          # only when the daemon allows it

Responses::

    {"type": "queued",     "id": "q1", "degraded": false}
    {"type": "result",     "id": "q1", "status": "sat", "witness": ...,
     "elapsed": ..., "latency_s": ..., "worker": "w0"}
    {"type": "overloaded", "id": "q1", "reason": ..., "retry_after_s": ...}
    {"type": "error",      "message": ...}        # protocol errors
    {"type": "stats", ...} / {"type": "pong"} / {"type": "bye"}

Threading model — exactly one thread touches multiprocessing state:

* the **accept thread** hands each connection to a reader thread;
* **reader threads** parse client lines, run admission, and enqueue
  accepted jobs on a plain ``queue.Queue`` inbox (responses go out
  under a per-client send lock, so results racing an ack interleave
  cleanly);
* the **pool thread** alone drives the :class:`WorkerPool` — drains
  the inbox into :meth:`WorkerPool.submit`, calls
  :meth:`WorkerPool.pump`, and delivers completed results back to the
  sockets.  Worker queues, health checks and respawns never race.

Trust boundary: client JSON is *data*, never trusted.  Payloads are
size-capped, kinds are allow-listed (``pattern`` and ``smt2`` only —
the crash-injection kind used by the pool's own tests is refused
unless the daemon was started with ``allow_crash=True``), and a
malformed line costs the sender one error response, never the daemon.

Backpressure: every submission passes the
:class:`~repro.serve.admission.AdmissionController` *before* touching
the queue, so queue depth is bounded by construction — overload turns
into structured ``overloaded`` responses with a retry hint, and
over-budget clients are degraded (served only when no compliant work
waits) or shed first.  Accepted jobs are never dropped: a client that
disconnects mid-flight has its results discarded at delivery, but the
jobs still run and the workers never notice.
"""

import itertools
import json
import os
import queue as queue_mod
import socket
import threading
import time
from collections import deque

from repro.serve.admission import AdmissionController
from repro.serve.pool import WorkerPool

#: Longest accepted protocol line (bytes).  A line past this is a
#: protocol error, not a memory commitment.
MAX_LINE = 1 << 20

#: Client kinds the daemon will queue.  "bench" and "crash" exist for
#: the pool's own test harness and stay behind ``allow_crash``.
CLIENT_KINDS = ("pattern", "smt2")

#: How many recent serving latencies back the stats quantiles.
LATENCY_WINDOW = 4096

#: Grace for in-flight jobs at shutdown before the pool is stopped
#: anyway (never *dropping* them silently — anything unfinished is
#: reported in the stop log).
DRAIN_GRACE_S = 30.0


def _quantile(sorted_values, q):
    """The q-quantile of an ascending list (nearest-rank)."""
    if not sorted_values:
        return None
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


class _Client:
    """One connection's server-side state."""

    __slots__ = ("id", "sock", "send_lock", "alive", "inflight")

    def __init__(self, client_id, sock):
        self.id = client_id
        self.sock = sock
        self.send_lock = threading.Lock()
        self.alive = True
        #: job ids this client has submitted and not yet seen resolve —
        #: duplicate in-flight ids are a protocol error (results are
        #: keyed by id; a duplicate would make them ambiguous)
        self.inflight = set()

    def send(self, payload):
        """Ship one response line; returns False when the client is
        gone (the caller drops the payload cleanly)."""
        if not self.alive:
            return False
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        with self.send_lock:
            try:
                self.sock.sendall(data)
                return True
            except OSError:
                self.alive = False
                return False


class SolverDaemon:
    """The serving front end.  ``path`` selects a Unix socket;
    ``host``/``port`` a TCP one (port 0 binds ephemerally — read
    :attr:`address` after :meth:`start`).  All solver/pool knobs are
    forwarded to the persistent :class:`WorkerPool`."""

    def __init__(self, path=None, host=None, port=None, workers=2,
                 admission=None, obs=None, allow_crash=False,
                 allow_shutdown=True, **pool_kwargs):
        if path is None and host is None:
            raise ValueError("need a unix socket path or a TCP host")
        self.path = str(path) if path is not None else None
        self.host = host
        self.port = port or 0
        self.admission = admission or AdmissionController()
        self.allow_crash = bool(allow_crash)
        self.allow_shutdown = bool(allow_shutdown)
        if obs is None:
            from repro.obs import Observability

            obs = Observability()
        self.obs = obs
        scope = obs.metrics.scope("serve")
        self._c_accepted = scope.counter("accepted")
        self._c_degraded = scope.counter("degraded")
        self._c_rejected = scope.counter("rejected")
        self._c_results = scope.counter("results")
        self._c_dropped = scope.counter("dropped")
        self._g_depth = scope.gauge("queue_depth")
        self._h_latency = obs.metrics.histogram("serve.latency_s")
        self.pool = WorkerPool(workers=workers, **pool_kwargs)
        self._sock = None
        self.address = None
        self._clients = {}
        self._clients_lock = threading.Lock()
        self._client_ids = itertools.count()
        #: reader threads -> pool thread: ("job", ticket-dict) tuples
        self._inbox = queue_mod.Queue()
        self._indices = itertools.count()
        #: task index -> ticket (client id, job id, submit stamp, ...)
        self._tickets = {}
        self._latencies = deque(maxlen=LATENCY_WINDOW)
        self._latencies_lock = threading.Lock()
        self._store_hits = 0
        self._store_misses = 0
        self._served = 0
        self._dropped = 0
        self._stop = threading.Event()
        self._stopped = False
        self._pool_thread = None
        self._accept_thread = None
        self._started_at = None
        self._drain_grace = DRAIN_GRACE_S
        self._drain_deadline = None

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        """Bind, spawn the pool, and start the accept + pool threads.
        Returns the bound address (a path, or a ``(host, port)``)."""
        if self.path is not None:
            try:
                os.unlink(self.path)
            except OSError:
                pass
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.bind(self.path)
            self.address = self.path
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((self.host, self.port))
            self.address = self._sock.getsockname()
        self._sock.listen(64)
        self._sock.settimeout(0.2)
        self.pool.start()
        self._started_at = time.monotonic()
        self.obs.events.emit("daemon.start", address=str(self.address))
        self._pool_thread = threading.Thread(
            target=self._pool_loop, name="repro-daemon-pool", daemon=True,
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-daemon-accept", daemon=True,
        )
        self._pool_thread.start()
        self._accept_thread.start()
        return self.address

    def stop(self, drain_grace_s=DRAIN_GRACE_S):
        """Graceful shutdown: stop accepting, give in-flight jobs
        ``drain_grace_s`` to finish (results still delivered), then
        stop the pool (saving the warm store) and close every client.
        Reader threads are not joined — they exit on their own once
        their sockets close below.
        """
        if self._stopped:
            return
        self._stopped = True
        self._drain_grace = drain_grace_s
        self._stop.set()
        for thread in (self._pool_thread, self._accept_thread):
            if thread is not None:
                thread.join(timeout=drain_grace_s + 10.0)
        try:
            self._sock.close()
        except OSError:
            pass
        if self.path is not None:
            try:
                os.unlink(self.path)
            except OSError:
                pass
        with self._clients_lock:
            clients = list(self._clients.values())
        for client in clients:
            client.alive = False
            try:
                client.sock.close()
            except OSError:
                pass
        self.obs.events.emit("daemon.stop", served=self._served)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    # -- the accept + reader threads ----------------------------------------

    def _accept_loop(self):
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            client = _Client("c%d" % next(self._client_ids), conn)
            with self._clients_lock:
                self._clients[client.id] = client
            self.obs.events.emit("client.connect", client=client.id)
            reader = threading.Thread(
                target=self._reader_loop, args=(client,),
                name="repro-daemon-%s" % client.id, daemon=True,
            )
            reader.start()

    def _reader_loop(self, client):
        """Parse one client's line stream until EOF/stop.  A slow or
        stalled client blocks only this thread — submissions from other
        connections keep flowing."""
        try:
            handle = client.sock.makefile("rb")
            while not self._stop.is_set():
                try:
                    line = handle.readline(MAX_LINE + 1)
                except OSError:
                    break
                if not line:
                    break
                if len(line) > MAX_LINE:
                    client.send({
                        "type": "error",
                        "message": "line exceeds %d bytes" % MAX_LINE,
                    })
                    break
                line = line.strip()
                if not line:
                    continue
                if not self._handle_line(client, line):
                    break
        finally:
            self._disconnect(client)

    def _disconnect(self, client):
        client.alive = False
        try:
            client.sock.close()
        except OSError:
            pass
        with self._clients_lock:
            self._clients.pop(client.id, None)
        self.admission.forget(client.id)
        self.obs.events.emit("client.disconnect", client=client.id)

    def _handle_line(self, client, line):
        """Process one protocol line; returns False to end the
        connection."""
        try:
            msg = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            client.send({"type": "error", "message": "bad JSON line"})
            return True
        if not isinstance(msg, dict):
            client.send({"type": "error",
                         "message": "request is not an object"})
            return True
        op = msg.get("op")
        if op == "submit":
            self._handle_submit(client, msg)
            return True
        if op == "ping":
            client.send({"type": "pong"})
            return True
        if op == "stats":
            client.send(self.stats())
            return True
        if op == "shutdown":
            if not self.allow_shutdown:
                client.send({"type": "error",
                             "message": "shutdown is disabled"})
                return True
            client.send({"type": "bye"})
            self._stop.set()
            # hold this connection open until the pool thread drains:
            # the requester's own in-flight jobs still get their
            # results — shutdown never silently drops accepted work
            if self._pool_thread is not None:
                self._pool_thread.join(timeout=self._drain_grace + 10.0)
            return False
        client.send({"type": "error", "message": "unknown op %r" % (op,)})
        return True

    def _handle_submit(self, client, msg):
        job_id = msg.get("id")
        if job_id is None:
            job_id = "j%d" % next(self._indices)
        elif not isinstance(job_id, str) or len(job_id) > 256:
            client.send({"type": "error",
                         "message": "job id must be a short string"})
            return
        kind = msg.get("kind")
        allowed = CLIENT_KINDS if not self.allow_crash \
            else CLIENT_KINDS + ("bench", "crash")
        if kind not in allowed:
            client.send({
                "type": "error", "id": job_id,
                "message": "kind must be one of %s" % (allowed,),
            })
            return
        payload = msg.get("payload")
        if not isinstance(payload, str) or not payload:
            client.send({
                "type": "error", "id": job_id,
                "message": "payload must be a non-empty string",
            })
            return
        expected = msg.get("expected")
        if expected is not None and not isinstance(expected, str):
            client.send({
                "type": "error", "id": job_id,
                "message": "expected must be a string or null",
            })
            return
        if job_id in client.inflight:
            client.send({
                "type": "error", "id": job_id,
                "message": "job id %r is already in flight on this "
                           "connection" % job_id,
            })
            return
        verdict = self.admission.admit(
            client.id, self.pool.backlog + self._inbox.qsize(),
            self.pool.workers,
        )
        if not verdict.accepted:
            self._c_rejected.inc()
            self.obs.events.emit(
                "job.reject", client=client.id, reason=verdict.reason,
            )
            client.send({
                "type": "overloaded", "id": job_id,
                "reason": verdict.reason,
                "retry_after_s": verdict.retry_after_s,
            })
            return
        if verdict.degraded:
            self._c_degraded.inc()
        else:
            self._c_accepted.inc()
        client.inflight.add(job_id)
        self.obs.events.emit(
            "job.accept", client=client.id, job=job_id,
            degraded=verdict.degraded,
        )
        self._inbox.put({
            "client": client.id, "id": job_id, "kind": kind,
            "payload": payload, "expected": expected,
            "degraded": verdict.degraded, "submitted": time.monotonic(),
        })
        client.send({
            "type": "queued", "id": job_id, "degraded": verdict.degraded,
        })

    # -- the pool thread ----------------------------------------------------

    def _pool_loop(self):
        """The only thread that touches the pool; :meth:`WorkerPool.pump`
        does the idle wait.  The stop flag is read before the inbox is
        drained, so every job accepted ahead of a shutdown is in the
        backlog the drain check sees."""
        pool = self.pool
        try:
            while True:
                pool.pump()
                self._deliver(pool.take_completed())
                stopping = self._stop.is_set()
                self._drain_inbox()
                self._g_depth.set(pool.backlog)
                if stopping:
                    if pool.backlog == 0 or pool.broken:
                        break
                    if self._drain_deadline is None:
                        self._drain_deadline = (
                            time.monotonic() + self._drain_grace
                        )
                    elif time.monotonic() > self._drain_deadline:
                        break
        finally:
            # anything still in flight at this point is reported, not
            # silently lost (stop() already waited out the grace)
            for index, ticket in sorted(self._tickets.items()):
                self._send_result(ticket, {
                    "type": "result", "id": ticket["id"],
                    "status": "unknown",
                    "reason": "daemon stopped before this job finished",
                })
            self._tickets.clear()
            try:
                pool.stop()  # saves the warm store
            except Exception:
                pool.kill()

    def _drain_inbox(self):
        while True:
            try:
                entry = self._inbox.get_nowait()
            except queue_mod.Empty:
                return
            index = next(self._indices)
            self._tickets[index] = entry
            self.pool.submit(
                {
                    "index": index, "name": entry["id"],
                    "kind": entry["kind"], "payload": entry["payload"],
                    "expected": entry["expected"], "attempts": 0,
                },
                degraded=entry["degraded"],
            )

    def _deliver(self, results):
        for result in results:
            ticket = self._tickets.pop(result.index, None)
            if ticket is None:
                continue
            latency = time.monotonic() - ticket["submitted"]
            self.admission.observe(result.elapsed)
            with self._latencies_lock:
                self._latencies.append(latency)
            self._h_latency.observe(latency)
            self._served += 1
            self._c_results.inc()
            stats = result.stats or {}
            self._store_hits += stats.get("store_hits") or 0
            self._store_misses += stats.get("store_misses") or 0
            payload = {
                "type": "result", "id": ticket["id"],
                "status": result.status, "witness": result.witness,
                "model": result.model, "reason": result.reason,
                "error": result.error, "elapsed": result.elapsed,
                "latency_s": latency, "worker": result.worker,
            }
            self._send_result(ticket, payload, status=result.status,
                              latency=latency)

    def _send_result(self, ticket, payload, status=None, latency=None):
        with self._clients_lock:
            client = self._clients.get(ticket["client"])
        if client is not None:
            client.inflight.discard(ticket["id"])
        if client is None or not client.send(payload):
            # the client is gone: the job ran to completion (workers
            # are oblivious to connections), only the delivery drops
            self._dropped += 1
            self._c_dropped.inc()
            self.obs.events.emit(
                "job.drop", client=ticket["client"], job=ticket["id"],
            )
            return
        if status is not None:
            self.obs.events.emit(
                "job.result", client=ticket["client"], job=ticket["id"],
                status=status, latency_s=latency,
            )

    # -- stats --------------------------------------------------------------

    def stats(self):
        """The ``stats`` op's payload: SLO quantiles over the recent
        latency window, admission counters, pool and store state."""
        with self._latencies_lock:
            window = sorted(self._latencies)
        lookups = self._store_hits + self._store_misses
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None else 0.0
        )
        return {
            "type": "stats",
            "uptime_s": uptime,
            "served": self._served,
            "dropped": self._dropped,
            "queue_depth": self.pool.backlog,
            "workers": self.pool.workers,
            "latency": {
                "window": len(window),
                "p50_s": _quantile(window, 0.50),
                "p90_s": _quantile(window, 0.90),
                "p99_s": _quantile(window, 0.99),
            },
            "admission": self.admission.snapshot(),
            "store": {
                "hits": self._store_hits,
                "misses": self._store_misses,
                "hit_ratio": (
                    self._store_hits / lookups if lookups else None
                ),
            },
        }
