"""Client side of the daemon protocol.

:class:`DaemonClient` wraps one socket connection with line-oriented
JSON framing and a small convenience layer: :meth:`DaemonClient.solve`
submits a batch of :class:`~repro.serve.jobs.Job` objects and resolves
the interleaved ``queued`` / ``result`` / ``overloaded`` stream back
into per-job outcome dicts, retrying rejected submissions after the
daemon's ``retry_after_s`` hint (bounded attempts — a client that just
hammers a loaded daemon is the failure mode admission control exists
to stop).

Addresses: a string containing ``/`` (or one lone ``:``-free token) is
a Unix socket path; ``host:port`` dials TCP.  A ``(host, port)`` tuple
is TCP directly.
"""

import json
import socket
import time

#: Default wall budget for :meth:`DaemonClient.solve` to resolve all
#: outstanding jobs before declaring the daemon unresponsive.
DEFAULT_SOLVE_TIMEOUT_S = 120.0


def parse_address(address):
    """Normalize an address spec into ``("unix", path)`` or
    ``("tcp", (host, port))``."""
    if isinstance(address, (tuple, list)):
        host, port = address
        return "tcp", (host, int(port))
    address = str(address)
    if ":" in address and "/" not in address:
        host, _, port = address.rpartition(":")
        return "tcp", (host or "127.0.0.1", int(port))
    return "unix", address


class DaemonError(Exception):
    """The daemon answered with a protocol error, or went away."""


class DaemonClient:
    """One connection to a :class:`~repro.serve.daemon.SolverDaemon`."""

    def __init__(self, address, timeout=10.0):
        family, target = parse_address(address)
        if family == "unix":
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._timeout = timeout
        self._sock.settimeout(timeout)
        self._sock.connect(target)
        self._handle = self._sock.makefile("rb")
        self._ids = 0

    def close(self):
        try:
            self._handle.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- raw protocol -------------------------------------------------------

    def send(self, message):
        """Ship one request object."""
        data = (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise DaemonError("daemon connection lost: %s" % exc)

    def recv(self, timeout=None):
        """The next response object, or None on EOF.  ``timeout``
        overrides the connection default for this read only."""
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            line = self._handle.readline()
        except socket.timeout:
            raise DaemonError("timed out waiting for the daemon")
        except OSError as exc:
            raise DaemonError("daemon connection lost: %s" % exc)
        finally:
            if timeout is not None and self._sock.fileno() >= 0:
                self._sock.settimeout(self._timeout)
        if not line:
            return None
        try:
            return json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise DaemonError("daemon sent a bad line: %r" % line[:200])

    # -- conveniences -------------------------------------------------------

    def submit(self, kind, payload, job_id=None, expected=None):
        """Fire one submission (no waiting); returns the job id used."""
        if job_id is None:
            self._ids += 1
            job_id = "q%d" % self._ids
        message = {"op": "submit", "id": job_id, "kind": kind,
                   "payload": payload}
        if expected is not None:
            message["expected"] = expected
        self.send(message)
        return job_id

    def ping(self):
        self.send({"op": "ping"})
        reply = self.recv()
        return reply is not None and reply.get("type") == "pong"

    def stats(self):
        """The daemon's stats block (may consume and stash nothing —
        call between batches, or use :meth:`solve` which tolerates
        interleaving)."""
        self.send({"op": "stats"})
        while True:
            reply = self.recv()
            if reply is None:
                raise DaemonError("daemon closed during stats")
            if reply.get("type") == "stats":
                return reply

    def shutdown(self):
        self.send({"op": "shutdown"})

    def solve(self, jobs, timeout=DEFAULT_SOLVE_TIMEOUT_S, max_retries=3,
              on_reject=None):
        """Submit ``jobs`` (Job objects or ``(kind, payload)`` pairs)
        and block until every one resolves; returns ``{job_id:
        outcome-dict}`` where an outcome is the final ``result``
        message, or the last ``overloaded`` message for a job the
        daemon kept rejecting past ``max_retries``.

        ``on_reject`` (optional callable) observes each structured
        rejection — the smoke harness counts them there.
        """
        pending = {}
        retries = {}
        specs = {}
        for job in jobs:
            kind = getattr(job, "kind", None) or job[0]
            payload = getattr(job, "payload", None) or job[1]
            expected = getattr(job, "expected", None)
            name = getattr(job, "name", None)
            job_id = self.submit(kind, payload, job_id=name,
                                 expected=expected)
            specs[job_id] = (kind, payload, expected)
            pending[job_id] = None
            retries[job_id] = 0
        outcomes = {}
        deadline = time.monotonic() + timeout
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DaemonError(
                    "%d job(s) unresolved after %.0fs: %s"
                    % (len(pending), timeout,
                       ", ".join(sorted(pending)[:5]))
                )
            reply = self.recv(timeout=min(remaining, 10.0))
            if reply is None:
                raise DaemonError(
                    "daemon closed with %d job(s) pending" % len(pending)
                )
            kind = reply.get("type")
            job_id = reply.get("id")
            if kind == "queued":
                continue
            if kind == "result" and job_id in pending:
                outcomes[job_id] = reply
                del pending[job_id]
            elif kind == "overloaded" and job_id in pending:
                if on_reject is not None:
                    on_reject(reply)
                retries[job_id] += 1
                if retries[job_id] > max_retries:
                    outcomes[job_id] = reply
                    del pending[job_id]
                    continue
                hint = reply.get("retry_after_s") or 0.1
                time.sleep(min(float(hint), max(0.0, remaining)))
                spec = specs[job_id]
                self.submit(spec[0], spec[1], job_id=job_id,
                            expected=spec[2])
            elif kind == "error":
                if job_id in pending:
                    outcomes[job_id] = reply
                    del pending[job_id]
                else:
                    raise DaemonError(
                        "daemon protocol error: %r" % reply.get("message")
                    )
        return outcomes
