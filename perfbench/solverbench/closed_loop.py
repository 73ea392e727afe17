"""The closed-loop clients of ``serve_closed``.

Callers of ``DaemonClient.solve`` and ``repro submit`` block on the
reply, so each client here is a closed loop: one connection, one request
in flight, the next request sent only after the previous reply.  For
every reply it records the client-observed time, the daemon's
``latency_s`` (admission to delivery) and the worker's ``elapsed``, which
split the client's time into service, daemon wait and client-side
framing.

Passes are synchronised: every client finishes its share of a pass
before the next pass starts, so a run always covers whole passes and its
verdict counts repeat exactly for a seed.
"""

import json
import threading
import time

from repro.serve.client import DaemonClient, DaemonError

clock = time.perf_counter

#: Longest wait for one reply, and for a pass barrier.
REPLY_TIMEOUT_S = 120.0


def wire_bytes(message):
    """Bytes of one NDJSON protocol line, framed as both ends frame it."""
    return len((json.dumps(message, sort_keys=True) + "\n").encode("utf-8"))


class Call:
    """One request's outcome as the client saw it."""

    __slots__ = ("client_s", "reply", "wire", "error")

    def __init__(self, client_s=None, reply=None, wire=0, error=None):
        self.client_s = client_s
        self.reply = reply
        self.wire = wire
        self.error = error

    @property
    def ok(self):
        """A ``result`` reply with both daemon-side stamps."""
        reply = self.reply
        return (self.error is None and reply is not None
                and reply.get("type") == "result"
                and isinstance(reply.get("latency_s"), float)
                and isinstance(reply.get("elapsed"), float))


def _call(connection, job_id, kind, payload):
    message = {"op": "submit", "id": job_id, "kind": kind,
               "payload": payload}
    wire = wire_bytes(message)
    started = clock()
    connection.send(message)
    while True:
        reply = connection.recv()
        if reply is None:
            return Call(wire=wire, error="daemon closed the connection")
        wire += wire_bytes(reply)
        if reply.get("type") == "queued":
            continue
        if reply.get("id") == job_id:
            return Call(clock() - started, reply, wire)
        return Call(wire=wire, reply=reply,
                    error="unexpected reply %r" % reply.get("type"))


class ClosedLoop:
    """``clients`` connections to the daemon at ``address``, each driven
    by its own thread."""

    def __init__(self, address, clients):
        self._connections = [
            DaemonClient(address, timeout=REPLY_TIMEOUT_S)
            for _ in range(clients)
        ]
        self._start = threading.Barrier(clients + 1)
        self._done = threading.Barrier(clients + 1)
        self._jobs = None
        self._calls = [None] * clients
        self._threads = [
            threading.Thread(target=self._client, args=(k,),
                             name="perfbench-client-%d" % k, daemon=True)
            for k in range(clients)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def clients(self):
        return len(self._connections)

    def run(self, jobs):
        """Drive one pass of ``(kind, payload)`` jobs; job ``i`` goes to
        client ``i % clients``.  Returns one :class:`Call` per job, in
        job order."""
        self._jobs = jobs
        self._start.wait(REPLY_TIMEOUT_S)
        self._done.wait(REPLY_TIMEOUT_S * max(1, len(jobs)))
        calls = [None] * len(jobs)
        for share in self._calls:
            for index, call in share:
                calls[index] = call
        return calls

    def close(self):
        """Stop the client threads and close their connections."""
        self._jobs = None
        try:
            self._start.wait(REPLY_TIMEOUT_S)
        except threading.BrokenBarrierError:
            pass
        for thread in self._threads:
            thread.join(REPLY_TIMEOUT_S)
        for connection in self._connections:
            connection.close()

    def _client(self, k):
        connection = self._connections[k]
        step = len(self._connections)
        while True:
            try:
                self._start.wait()
            except threading.BrokenBarrierError:
                return
            jobs = self._jobs
            if jobs is None:
                return
            share = []
            failed = None
            for index in range(k, len(jobs), step):
                if failed is not None:
                    share.append((index, Call(error=failed)))
                    continue
                kind, payload = jobs[index]
                try:
                    call = _call(connection, "c%d-%d" % (k, index), kind,
                                 payload)
                except DaemonError as exc:
                    call = Call(error=str(exc))
                if call.reply is None:
                    # the connection is gone: the rest of this share
                    # fails without another attempt
                    failed = call.error
                share.append((index, call))
            self._calls[k] = share
            try:
                self._done.wait()
            except threading.BrokenBarrierError:
                return
