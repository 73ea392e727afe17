"""The record stream: spans, events and heartbeats in one envelope.

Metrics aggregate; records *narrate and time*.  One :class:`Recorder`
per process writes every record the solver, worker and pool produce —
nested spans (``solver.explore``, ``deriv.tree``, ``task:<name>``),
discrete events (``task.start``, ``cache.compaction``,
``job.accept``, ...) and worker heartbeats — and every record carries
the same correlation envelope, so per-process streams merge into one
cross-process timeline (:mod:`repro.obs.flight`):

* ``v`` — the record schema version (:data:`EVENT_SCHEMA_VERSION`);
* ``kind`` — one of :data:`EVENT_KINDS`: ``span``, ``heartbeat``, or
  an event kind;
* ``ts`` — epoch seconds, comparable across processes (a span's
  ``ts`` is its start);
* ``pid`` — the writing process, the timeline's lane key (a heartbeat
  keeps the pid of the worker that measured it);
* ``worker`` — the pool-assigned worker id (``"w0"``...), or
  ``"pool"`` for the parent;
* ``job`` — the job being solved, when one is in flight (set via
  :meth:`Recorder.set_job`, so solver-layer records correlate without
  the solver knowing about jobs).

A span record adds ``name``, ``dur``, ``depth`` and ``args`` (the
exception type under ``args["error"]`` when the span exited by
raising).  The recorder keeps records in memory, appends them as
whole JSON lines to one file, or both.  File writes hold a lock, so the
daemon's threads can share the pool's file.  Events and heartbeats are
flushed per line, so the file survives a SIGKILL up to the last
completed write; span records are buffered and reach the disk with the
next event (in a flight, at the latest with each task's ``task.end``),
so inner-loop spans never pay a syscall each.

The :class:`NullRecorder` (:data:`NULL_RECORDER`) makes ``span()``
return a shared no-op context manager and ``emit()`` do nothing, so
instrumented hot paths cost one attribute lookup plus an empty call
when recording is off.

Views over the stream live here too: :func:`chrome_trace` (Chrome
``trace_event``, loadable in ``chrome://tracing`` and
https://ui.perfetto.dev) and :func:`read_events`, the one JSONL reader.
"""

import json
import os
import threading
import time

#: Version stamped on every record; bump when a kind's fields change
#: incompatibly.  Kinds are only ever added, so new kinds keep it at 1.
#: Readers skip records with a newer version.
EVENT_SCHEMA_VERSION = 1

#: The known record kinds and the extra fields each is expected to
#: carry (beyond the envelope).  ``emit`` does not reject unknown kinds
#: — forward compatibility matters more in a log than strictness — but
#: :func:`validate_event` checks conformance and the tests hold every
#: writer to it.
EVENT_KINDS = {
    # repro.obs.events — the timing and vitals records
    "span": ("name", "dur", "depth", "args"),
    "heartbeat": ("queue_depth", "tasks", "rss_bytes", "caches"),
    # solver.engine / solver.smt — one pair per query
    "query.start": ("query",),
    "query.end": ("query", "status", "elapsed"),
    "smt.start": (),
    "smt.end": ("status", "case_splits"),
    # solver.lifecycle
    "cache.compaction": ("retired", "entries_before", "entries_after"),
    # serve.worker — the per-task narration
    "worker.start": (),
    "worker.exit": ("tasks", "retiring"),
    "task.start": ("name", "task_kind", "index"),
    "task.end": ("name", "index", "status", "elapsed"),
    "slow.capture": ("name", "artifact", "elapsed"),
    # serve.pool — fleet lifecycle, written by the parent
    "pool.start": ("jobs", "workers"),
    "pool.end": ("results",),
    "worker.spawn": ("spawned",),
    "worker.crash": ("crashed", "name"),
    "worker.reap": ("reaped", "name"),
    "worker.recycle": ("recycled",),
    "task.retry": ("name", "index"),
    # serve.daemon — the long-lived serving front end, written into the
    # pool's stream
    "daemon.start": ("address",),
    "daemon.stop": ("served",),
    "client.connect": ("client",),
    "client.disconnect": ("client",),
    "job.accept": ("client", "job", "degraded"),
    "job.reject": ("client", "reason"),
    "job.result": ("client", "job", "status", "latency_s"),
    "job.drop": ("client", "job"),
}


class Span:
    """An open span; writes its record when exited."""

    __slots__ = ("recorder", "name", "args", "start", "depth")

    def __init__(self, recorder, name, args):
        self.recorder = recorder
        self.name = name
        self.args = args

    def __enter__(self):
        recorder = self.recorder
        self.depth = recorder._depth
        recorder._depth += 1
        recorder._open.append(self)
        self.start = recorder._clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        recorder = self.recorder
        end = recorder._clock()
        recorder._depth -= 1
        recorder._open.pop()
        record = self.record(end)
        if exc_type is not None:
            record["args"] = dict(self.args, error=exc_type.__name__)
        recorder.write(record, flush=False)
        return False

    def record(self, now, **extra):
        """This span as a record, timed up to ``now``."""
        return self.recorder.record(
            "span", ts=self.start, name=self.name, dur=now - self.start,
            depth=self.depth, args=self.args, **extra
        )


class Recorder:
    """One process's record stream.

    ``path`` appends every record to that JSONL file (append mode, so a
    recycled worker's replacement keeps its lane's history);
    ``keep=False`` drops the in-memory copy on ``events``, which
    long-lived processes that only need the file use.  ``clock`` stamps
    ``ts`` and times spans (epoch seconds by default).
    """

    enabled = True

    def __init__(self, path=None, worker=None, clock=time.time, pid=None,
                 keep=True):
        self.path = str(path) if path is not None else None
        self.worker = worker
        self.pid = pid if pid is not None else os.getpid()
        self.job = None
        self._clock = clock
        #: records in write order (None with keep=False)
        self.events = [] if keep else None
        self._depth = 0
        #: spans entered but not yet exited, outermost first
        self._open = []
        self._lock = threading.Lock()
        self._handle = None
        if self.path is not None:
            self._handle = open(self.path, "a", encoding="utf-8")

    def set_job(self, job):
        """Set (or clear, with None) the job stamped on later records."""
        self.job = job

    def record(self, kind, ts=None, **fields):
        """A record in this recorder's envelope, not yet written (the
        worker builds heartbeats this way; the pool writes them)."""
        record = {
            "v": EVENT_SCHEMA_VERSION,
            "kind": kind,
            "ts": self._clock() if ts is None else ts,
            "pid": self.pid,
        }
        if self.worker is not None:
            record["worker"] = self.worker
        if self.job is not None:
            record["job"] = self.job
        record.update(fields)
        return record

    def emit(self, kind, **fields):
        """Write one event record now; returns it."""
        return self.write(self.record(kind, **fields))

    def span(self, name, **args):
        """A context manager timing a nested span."""
        return Span(self, name, args)

    def write(self, record, flush=True):
        """Append a finished record — this process's own, or one
        relayed from another process — as one whole line."""
        if self.events is not None:
            self.events.append(record)
        if self._handle is not None:
            line = json.dumps(record, sort_keys=True, default=str) + "\n"
            with self._lock:
                try:
                    if self._handle is not None:
                        self._handle.write(line)
                        if flush:
                            self._handle.flush()
                except (OSError, ValueError):  # pragma: no cover - disk gone
                    pass
        return record

    def close(self):
        """Write still-open spans as ``"unfinished"`` records (their
        duration measured up to now) and close the file."""
        if self._handle is None:
            return
        now = self._clock()
        for span in reversed(self._open):
            self.write(span.record(now, unfinished=True), flush=False)
        with self._lock:
            handle, self._handle = self._handle, None
            try:
                handle.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- export ------------------------------------------------------------

    def export_events(self):
        """The in-memory records plus snapshots of still-open spans.

        Open spans are appended innermost first (so children precede
        parents, like completion order) with their duration measured up
        to now and an ``"unfinished": True`` marker; the spans stay
        open and still record normally when exited.
        """
        records = list(self.events or ())
        if self._open:
            now = self._clock()
            records.extend(span.record(now, unfinished=True)
                           for span in reversed(self._open))
        return records

    def export(self, path):
        """Write :meth:`export_events` choosing the format by extension:
        ``.jsonl`` writes JSONL (read it back with :func:`read_jsonl`),
        anything else the Chrome format.  Returns the record count."""
        records = self.export_events()
        with open(path, "w", encoding="utf-8") as handle:
            if str(path).endswith(".jsonl"):
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True))
                    handle.write("\n")
            else:
                json.dump(chrome_trace(records), handle)
        return len(records)

    def __repr__(self):
        return "Recorder(worker=%r, path=%r)" % (self.worker, self.path)


# -- validation and reading ---------------------------------------------------


def validate_event(event):
    """Check one record against the schema; returns a list of problems
    (empty when conformant).  Unknown kinds are a problem — writers
    must register their kinds in :data:`EVENT_KINDS` — but unknown
    *extra* fields are not."""
    if not isinstance(event, dict):
        return ["event is not an object: %r" % (event,)]
    problems = ["missing %r" % field for field in ("v", "kind", "ts", "pid")
                if field not in event]
    if problems:
        return problems
    problem = _envelope_problem(event)
    if problem is not None:
        return [problem]
    if event["v"] > EVENT_SCHEMA_VERSION:
        problems.append("schema version %r is newer than %d"
                        % (event["v"], EVENT_SCHEMA_VERSION))
    kind = event["kind"]
    required = EVENT_KINDS.get(kind)
    if required is None:
        return problems + ["unknown kind %r" % (kind,)]
    return problems + ["%s missing %r" % (kind, field)
                       for field in required if field not in event]


def _envelope_problem(event):
    """Why ``event`` is not a record: not an object, or an envelope
    field of the wrong type.  None when the envelope is well typed."""
    if not isinstance(event, dict):
        return "event is not an object"
    version, kind, ts = event.get("v"), event.get("kind"), event.get("ts")
    if not isinstance(version, int) or isinstance(version, bool):
        return "version %r is not an integer" % (version,)
    if not isinstance(kind, str):
        return "kind %r is not a string" % (kind,)
    if not isinstance(ts, (int, float)) or isinstance(ts, bool):
        return "ts %r is not a number" % (ts,)
    return None


def read_events(path, strict=False):
    """Parse a JSONL record file back into a list of record dicts.

    A truncated final line — the signature of a SIGKILLed writer — and
    a record whose envelope has the wrong type (``v`` not an integer,
    ``kind`` not a string, ``ts`` not a number) are skipped rather
    than raised, unless ``strict``.  Records from a *newer* schema
    version are skipped either way (forward compatibility).
    """
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                if strict:
                    raise ValueError(
                        "%s:%d: bad JSON event line" % (path, lineno)
                    )
                continue  # torn final write from a killed process
            problem = _envelope_problem(event)
            if problem is not None:
                if strict:
                    raise ValueError("%s:%d: %s" % (path, lineno, problem))
            elif event["v"] <= EVENT_SCHEMA_VERSION:
                events.append(event)
    return events


def read_jsonl(path):
    """A JSONL export read back (:func:`read_events`, strict)."""
    return read_events(path, strict=True)


# -- the Chrome view ----------------------------------------------------------

#: Heartbeat vitals rendered as Chrome counter tracks.
_COUNTERS = (
    ("rss_mb", lambda beat: beat.get("rss_bytes", 0) / 1048576.0),
    ("cache_entries",
     lambda beat: (beat.get("caches") or {}).get("entries_total", 0)),
    ("queue_depth", lambda beat: beat.get("queue_depth", 0)),
)


def chrome_trace(records, lanes=None):
    """Records rendered as a Chrome ``trace_event`` object.

    Timestamps are rebased to the earliest record, so the trace starts
    at zero.  Span records become complete (``"ph": "X"``) events,
    heartbeats become ``rss_mb`` / ``cache_entries`` / ``queue_depth``
    counter tracks, and every other record an instant marker named by
    its kind.  A record lands on its ``pid`` lane (``tid`` 0 unless it
    carries one); ``lanes`` optionally maps ``pid -> display name``,
    each entry becoming a ``process_name`` metadata event so Perfetto
    labels the lanes.
    """
    t0 = min((record["ts"] for record in records), default=0.0)
    trace_events = []
    for pid, label in sorted((lanes or {}).items()):
        trace_events.append({
            "name": "process_name", "ph": "M", "ts": 0, "pid": pid,
            "tid": 0, "args": {"name": str(label)},
        })
    for record in records:
        kind = record.get("kind")
        lane = {
            "ts": (record["ts"] - t0) * 1e6,
            "pid": record.get("pid", 0),
            "tid": record.get("tid", 0),
        }
        if kind == "heartbeat":
            for counter, value in _COUNTERS:
                trace_events.append(dict(
                    lane, name=counter, ph="C",
                    args={counter: value(record)},
                ))
        elif kind == "span":
            args = dict(record.get("args") or {})
            if record.get("unfinished"):
                args["unfinished"] = True
            trace_events.append(dict(
                lane, name=record["name"], cat="repro", ph="X",
                dur=record["dur"] * 1e6, args=args,
            ))
        else:
            trace_events.append(dict(
                lane, name=kind or "event", cat="repro", ph="i", s="t",
                args={k: v for k, v in record.items()
                      if k not in ("kind", "ts", "pid", "v")},
            ))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def read_chrome(path):
    """Parse a Chrome-format trace file, validating its structure.

    Returns the list of trace events; raises ``ValueError`` if the file
    is not a well-formed trace (the shape ``chrome://tracing`` checks).
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ValueError("not a Chrome trace: missing traceEvents")
    events = data["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for event in events:
        if not isinstance(event, dict):
            raise ValueError("trace event must be an object: %r" % (event,))
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in event:
                raise ValueError("trace event missing %r: %r" % (field, event))
        if event["ph"] == "X" and "dur" not in event:
            raise ValueError("complete event missing dur: %r" % (event,))
    return events


# -- the null backend ---------------------------------------------------------


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Recorder stand-in: shared no-op spans, no-op emits."""

    enabled = False
    events = ()
    path = None
    worker = None
    job = None

    def set_job(self, job):
        pass

    def emit(self, kind, **fields):
        return None

    def span(self, name, **args):
        return _NULL_SPAN

    def write(self, record, flush=True):
        return record

    def close(self):
        pass

    def export_events(self):
        return []

    def export(self, path):
        raise ValueError("recording is disabled; nothing to export")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def __repr__(self):
        return "NullRecorder()"


NULL_RECORDER = NullRecorder()
