"""The solver flight recorder: one record stream per process, merged
into one timeline, plus slow-query capture.

A *flight directory* is the durable record of one batch run or daemon
life: every process appends its own record stream while the pool
flies, and the pool merges them into one timeline when (or after — the
files are append-only JSONL, so a crashed run merges just as well) it
lands.  Layout::

    flight-dir/
      events-pool.jsonl     the parent's lane: pool lifecycle events
                            (spawn/crash/reap/...), the daemon's
                            serving events (daemon.*, client.*, job.*)
                            and every worker heartbeat
      events-<wid>.jsonl    one worker's lane: task.start/end, query
                            and compaction events, and span records
                            (one task-level span per job; the solver's
                            internal spans too with ``trace_solver`` —
                            much slower, debugging only)
      slow/NNNN-<name>.json replayable slow-query artifacts
      timeline.json         the merged Chrome trace (written at the end)

Every line is one record of :mod:`repro.obs.events` in one envelope
(``v``/``kind``/``ts``/``pid``/``worker``/``job``), timestamped in
epoch seconds when it is recorded.  Events and heartbeats are flushed
per line and span records at every task end, so a SIGKILLed worker's
lane survives up to its last completed task, with its dangling
``task.start``; :func:`repro.obs.events.read_events` tolerates the torn
final line such a death leaves behind.

**Heartbeats.**  Each worker runs a daemon thread that periodically
ships a ``heartbeat`` record up the existing result channel: queue
depth (0 or 1 — the pool dispatches depth-one), tasks done, the
in-flight job, RSS and the ``cache.*`` levels.  The pool writes each
one into its own lane and keeps the latest few on the
:class:`~repro.serve.report.BatchReport`, so a wedged worker is visible
*while* it hangs (its heartbeats stop, or keep naming the same job),
not after the batch report lands.

**Slow-query capture.**  When a task exceeds the latency threshold
(``slow_s``) or the derivative-count threshold (``slow_explored``,
compared against the solver's ``explored`` stat), the worker freezes a
self-contained JSON artifact — payload, kind, budget, verdict, stats —
into ``slow/``; a concrete ``pattern`` or ``smt2`` verdict also gets a
checked certificate from a re-solve with provenance on.
:func:`replay_artifact` re-solves it through the very worker executor
that produced it (same budgets, fresh state) and reports whether the
verdict reproduces; the ``repro replay`` CLI wraps that.

**Timeline.**  :func:`merge_timeline` renders every lane through
:func:`~repro.obs.events.chrome_trace`: one pid lane per process (named
via ``process_name`` metadata), spans as complete events, events as
instant markers, and heartbeat RSS / cache levels as counter tracks —
load it in ``chrome://tracing`` or https://ui.perfetto.dev.  ``repro
status`` renders the same records as text: per-worker lanes,
p50/p90/p99 job latency, top-N slow queries, crash/recycle events.
"""

import json
import os
import threading
import time

from repro.obs.events import Recorder, chrome_trace, read_events
from repro.obs.explain import CertificateError
from repro.obs.metrics import percentile

#: Schema version stamped on slow-query artifacts.
ARTIFACT_SCHEMA_VERSION = 1

#: Default seconds between worker heartbeats.
DEFAULT_HEARTBEAT_S = 0.25

#: Default latency threshold for slow-query capture (seconds).
DEFAULT_SLOW_S = 1.0

POOL_LANE = "pool"
TIMELINE_NAME = "timeline.json"
SLOW_DIR = "slow"


def events_path(flight_dir, lane):
    return os.path.join(flight_dir, "events-%s.jsonl" % lane)


def slow_dir(flight_dir):
    return os.path.join(flight_dir, SLOW_DIR)


def list_streams(flight_dir):
    """The lanes' record files as a ``{lane: path}`` dict."""
    try:
        names = sorted(os.listdir(flight_dir))
    except OSError:
        return {}
    return {
        name[len("events-"):-len(".jsonl")]: os.path.join(flight_dir, name)
        for name in names
        if name.startswith("events-") and name.endswith(".jsonl")
    }


def list_artifacts(flight_dir):
    """Paths of the captured slow-query artifacts, sorted."""
    root = slow_dir(flight_dir)
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return []
    return [os.path.join(root, n) for n in names if n.endswith(".json")]


def load_flight(flight_dir):
    """Everything a flight directory holds, parsed.

    Returns ``{"records", "events", "spans", "heartbeats", "artifacts",
    "lanes"}``: ``records`` merges every lane *stably* by timestamp
    (ties keep each lane's own file order — per-worker record ordering
    is part of the contract), ``events``/``spans``/``heartbeats`` split
    it by kind, and ``lanes`` maps pid to the lane (worker id) that
    produced it.
    """
    records = []
    lanes = {}
    for lane, path in list_streams(flight_dir).items():
        for record in read_events(path):
            lanes.setdefault(record.get("pid"), record.get("worker", lane))
            records.append(record)
    lanes.pop(None, None)
    records.sort(key=lambda record: record["ts"])
    return {
        "records": records,
        "events": [r for r in records
                   if r["kind"] not in ("span", "heartbeat")],
        "spans": [r for r in records if r["kind"] == "span"],
        "heartbeats": [r for r in records if r["kind"] == "heartbeat"],
        "artifacts": list_artifacts(flight_dir),
        "lanes": lanes,
    }


# -- the merged timeline ------------------------------------------------------


def merge_timeline(flight_dir):
    """One Chrome trace over every lane in the flight directory (see
    :func:`~repro.obs.events.chrome_trace`), each process on its own
    labelled pid lane, starting at zero."""
    flight = load_flight(flight_dir)
    return chrome_trace(flight["records"], lanes=flight["lanes"])


def write_timeline(flight_dir, path=None):
    """Write :func:`merge_timeline` to ``timeline.json`` (or ``path``);
    returns the path written."""
    trace = merge_timeline(flight_dir)
    if path is None:
        path = os.path.join(flight_dir, TIMELINE_NAME)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return path


# -- latency + status ---------------------------------------------------------


def latency_stats(events):
    """p50/p90/p99 over the ``task.end`` events' elapsed times."""
    laps = sorted(
        e.get("elapsed", 0.0) for e in events if e.get("kind") == "task.end"
    )
    if not laps:
        return {"count": 0, "p50_s": None, "p90_s": None, "p99_s": None,
                "max_s": None}
    return {
        "count": len(laps),
        "p50_s": percentile(laps, 0.50),
        "p90_s": percentile(laps, 0.90),
        "p99_s": percentile(laps, 0.99),
        "max_s": laps[-1],
    }


def worker_lanes(flight):
    """Per-worker summary rows from a loaded flight: tasks finished,
    busy seconds, last heartbeat vitals, crash/reap/recycle marks."""
    rows = {}

    def row(worker):
        return rows.setdefault(worker, {
            "worker": worker, "pid": None, "tasks": 0, "busy_s": 0.0,
            "heartbeats": 0, "rss_mb": None, "cache_entries": None,
            "crashed": 0, "reaped": 0, "recycled": 0, "last_job": None,
        })

    for event in flight["events"]:
        kind = event.get("kind")
        worker = event.get("worker")
        if kind == "task.end" and worker:
            cell = row(worker)
            cell["tasks"] += 1
            cell["busy_s"] += event.get("elapsed", 0.0)
            cell["pid"] = event.get("pid", cell["pid"])
        elif kind == "worker.crash":
            row(event.get("crashed", "?"))["crashed"] += 1
        elif kind == "worker.reap":
            row(event.get("reaped", "?"))["reaped"] += 1
        elif kind == "worker.recycle":
            row(event.get("recycled", "?"))["recycled"] += 1
    for beat in flight["heartbeats"]:
        worker = beat.get("worker")
        if not worker:
            continue
        cell = row(worker)
        cell["heartbeats"] += 1
        cell["pid"] = beat.get("pid", cell["pid"])
        cell["rss_mb"] = beat.get("rss_bytes", 0) / 1048576.0
        caches = beat.get("caches") or {}
        cell["cache_entries"] = caches.get("entries_total")
        cell["last_job"] = beat.get("job")
    return [rows[w] for w in sorted(rows)]


def load_artifact(path):
    with open(path, "r", encoding="utf-8") as handle:
        artifact = json.load(handle)
    if not isinstance(artifact, dict) or "payload" not in artifact:
        raise ValueError("not a slow-query artifact: %s" % path)
    if artifact.get("v", 0) > ARTIFACT_SCHEMA_VERSION:
        raise ValueError(
            "artifact schema %r newer than %d in %s"
            % (artifact.get("v"), ARTIFACT_SCHEMA_VERSION, path)
        )
    return artifact


def render_status(flight_dir, top=5):
    """The ``repro status`` text: per-worker lanes, latency quantiles,
    top slow queries, and fleet incidents."""
    flight = load_flight(flight_dir)
    lines = ["flight %s" % flight_dir]
    lanes = worker_lanes(flight)
    if lanes:
        lines.append("%-8s %7s %6s %8s %7s %9s %7s  %s" % (
            "worker", "pid", "tasks", "busy(s)", "beats", "rss(MiB)",
            "cache", "notes",
        ))
        for cell in lanes:
            notes = []
            if cell["crashed"]:
                notes.append("crashed x%d" % cell["crashed"])
            if cell["reaped"]:
                notes.append("reaped x%d" % cell["reaped"])
            if cell["recycled"]:
                notes.append("recycled x%d" % cell["recycled"])
            if cell["last_job"]:
                notes.append("last job %s" % cell["last_job"])
            lines.append("%-8s %7s %6d %8.2f %7d %9s %7s  %s" % (
                cell["worker"], cell["pid"] if cell["pid"] else "-",
                cell["tasks"], cell["busy_s"], cell["heartbeats"],
                "%.1f" % cell["rss_mb"] if cell["rss_mb"] is not None
                else "-",
                cell["cache_entries"]
                if cell["cache_entries"] is not None else "-",
                " ".join(notes) or "-",
            ))
    else:
        lines.append("no worker lanes recorded")
    lat = latency_stats(flight["events"])
    if lat["count"]:
        lines.append(
            "latency: %d tasks, p50 %.3fs p90 %.3fs p99 %.3fs max %.3fs"
            % (lat["count"], lat["p50_s"], lat["p90_s"], lat["p99_s"],
               lat["max_s"])
        )
    slow = []
    for path in flight["artifacts"]:
        try:
            artifact = load_artifact(path)
        except (OSError, ValueError):
            continue
        slow.append((artifact.get("elapsed", 0.0), path, artifact))
    slow.sort(key=lambda cell: -cell[0])
    if slow:
        lines.append("slow queries (top %d of %d):"
                     % (min(top, len(slow)), len(slow)))
        for elapsed, path, artifact in slow[:top]:
            lines.append("  %.3fs %-10s %s (%s)  replay: %s" % (
                elapsed, artifact.get("status", "?"),
                artifact.get("name", "?"), artifact.get("kind", "?"),
                os.path.relpath(path, flight_dir),
            ))
    incidents = [
        e for e in flight["events"]
        if e.get("kind") in ("worker.crash", "worker.reap",
                             "worker.recycle", "task.retry")
    ]
    if incidents:
        lines.append("incidents:")
        for event in incidents:
            detail = event.get("name") or event.get("reason") or ""
            who = (event.get("crashed") or event.get("reaped")
                   or event.get("recycled") or "")
            lines.append(
                ("  %s %s %s" % (event["kind"], who, detail)).rstrip()
            )
    if os.path.exists(os.path.join(flight_dir, TIMELINE_NAME)):
        lines.append("timeline: %s"
                     % os.path.join(flight_dir, TIMELINE_NAME))
    return "\n".join(lines)


# -- slow-query artifacts + replay --------------------------------------------


def capture_artifact(flight_dir, task, out, config, worker=None, pid=None,
                     trigger=None):
    """Freeze one slow task as a replayable JSON artifact under
    ``slow/``; returns the artifact path."""
    root = slow_dir(flight_dir)
    os.makedirs(root, exist_ok=True)
    safe = "".join(
        ch if ch.isalnum() or ch in "._-" else "_"
        for ch in str(task.get("name", "task"))
    )[:80] or "task"
    path = os.path.join(
        root, "%04d-%s.json" % (task.get("index", 0), safe)
    )
    artifact = {
        "v": ARTIFACT_SCHEMA_VERSION,
        "name": task.get("name"),
        "index": task.get("index", 0),
        "kind": task.get("kind"),
        "payload": task.get("payload"),
        "expected": task.get("expected"),
        "budget": {
            "fuel": config.get("fuel"),
            "seconds": config.get("seconds"),
        },
        "max_char": config.get("max_char"),
        "status": out.get("status"),
        "elapsed": out.get("elapsed"),
        "trigger": trigger,
        "worker": worker,
        "pid": pid,
        "captured": time.time(),
    }
    for key in ("witness", "model", "reason", "error", "stats",
                "explanation"):
        if out.get(key) is not None:
            artifact[key] = out[key]
    if artifact["status"] in ("sat", "unsat") \
            and artifact["kind"] in ("pattern", "smt2"):
        # a slow concrete verdict is exactly the one worth a proof:
        # re-solve with provenance on, through the worker's executor on
        # a fresh stack, and embed the checked certificate.  Never let
        # enrichment break capture.
        try:
            from repro.serve.worker import solve_payload

            result = solve_payload(
                _artifact_state(artifact, explain=True), artifact["kind"],
                artifact["payload"],
            )
            explanation = result.explanation
            if explanation is not None \
                    and result.status == artifact["status"]:
                explanation.check()
                cert = artifact["certificate"] = {
                    "status": result.status,
                    "summary": explanation.summary(),
                    "explanation": explanation.to_dict(),
                }
                try:
                    cert["certificate"] = explanation.certificate()
                except CertificateError:
                    pass
        except Exception:
            pass
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=1, sort_keys=True, default=str)
        handle.write("\n")
    return path


def _artifact_state(artifact, explain=False):
    """A fresh :class:`~repro.serve.worker.WorkerState` with the
    artifact's recorded budget and ``max_char``."""
    # imported lazily: repro.serve depends on repro.obs, not vice versa
    from repro.serve.worker import WorkerState

    budget = artifact.get("budget") or {}
    return WorkerState({
        "fuel": budget.get("fuel"),
        "seconds": budget.get("seconds"),
        "max_char": artifact.get("max_char"),
        "explain": explain,
    })


def replay_artifact(source):
    """Re-solve a slow-query artifact; returns a comparison dict.

    ``source`` is an artifact path or an already-loaded artifact dict.
    The replay goes through :func:`repro.serve.worker.execute_task` —
    the same executor that produced the recording — on a fresh
    :class:`~repro.serve.worker.WorkerState` with the recorded budget,
    so "replays to the same verdict" means the full task semantics,
    not just a similar solve.
    """
    from repro.serve.worker import execute_task

    if isinstance(source, dict):
        artifact, path = source, None
    else:
        artifact, path = load_artifact(source), str(source)
    state = _artifact_state(artifact)
    task = {
        "index": artifact.get("index", 0),
        "name": artifact.get("name", "replay"),
        "kind": artifact.get("kind", "pattern"),
        "payload": artifact.get("payload"),
        "expected": artifact.get("expected"),
        "attempts": 0,
    }
    out = execute_task(state, task)
    return {
        "artifact": path,
        "name": task["name"],
        "kind": task["kind"],
        "recorded": artifact.get("status"),
        "replayed": out.get("status"),
        "match": out.get("status") == artifact.get("status"),
        "recorded_elapsed": artifact.get("elapsed"),
        "replayed_elapsed": out.get("elapsed"),
        "witness": out.get("witness"),
        "model": out.get("model"),
        "error": out.get("error"),
    }


# -- the per-worker recorder --------------------------------------------------


class WorkerFlight:
    """One worker process's half of the flight recorder.

    Owns the worker's :class:`~repro.obs.events.Recorder` — file-backed,
    keeping nothing in memory — which takes the worker's events and its
    span records alike, the heartbeat thread, and slow-query capture.
    A SIGKILL mid-task loses at most that task's span records, which
    the pool's crash event and the dangling ``task.start`` already
    attribute.
    """

    def __init__(self, flight_dir, worker_id, config):
        self.flight_dir = str(flight_dir)
        self.worker_id = worker_id
        self.config = config
        os.makedirs(self.flight_dir, exist_ok=True)
        self.pid = os.getpid()
        self.recorder = Recorder(
            events_path(self.flight_dir, worker_id), worker=worker_id,
            keep=False,
        )
        #: with ``config["trace_solver"]``, the solver stack's spans go
        #: to the recorder too and every internal span (deriv.tree,
        #: deriv.meld, ...) lands in the flight.  Off by default: inner-
        #: loop spans cost real time on derivative-heavy queries, and
        #: the recorder's own task-level spans already give the timeline
        #: its lanes at one span per task.
        self.trace_solver = bool(config.get("trace_solver"))
        self.slow_s = config.get("slow_s")
        self.slow_explored = config.get("slow_explored")
        self.heartbeat_s = config.get("heartbeat_s") or DEFAULT_HEARTBEAT_S
        self.captured = 0
        self._stop = threading.Event()
        self._thread = None
        self._state = None
        self._result_q = None
        self._task_span = None

    def observability(self):
        """The bundle the worker's solver stack should carry: this
        recorder for events, and for spans too when solver-internal
        tracing was requested (see ``trace_solver`` above)."""
        from repro.obs import Observability

        return Observability(
            tracer=self.recorder if self.trace_solver else None,
            events=self.recorder,
        )

    # -- heartbeats --------------------------------------------------------

    def start_heartbeats(self, state, result_q):
        """Begin shipping periodic vitals up the result channel.  The
        first beat is queued at once, ahead of any result on the same
        channel, so a worker that returns a result has reported in
        first; ``Queue.put`` only buffers it, though, and a worker
        killed during its first task may never send it."""
        self._state = state
        self._result_q = result_q
        self.recorder.emit("worker.start", heartbeat_s=self.heartbeat_s)
        self._beat()
        self._thread = threading.Thread(
            target=self._heartbeat_loop,
            name="flight-heartbeat-%s" % self.worker_id,
            daemon=True,
        )
        self._thread.start()

    def heartbeat(self):
        """One heartbeat record (also sent on the wire by the loop; its
        ``type`` routes it on the result channel)."""
        vitals = {
            "type": "heartbeat",
            "queue_depth": 1 if self.recorder.job is not None else 0,
        }
        state = self._state
        if state is not None:
            vitals["tasks"] = state.tasks_done
            try:
                from repro.serve.worker import rss_bytes

                vitals["rss_bytes"] = rss_bytes()
            except Exception:  # pragma: no cover - exotic platforms
                vitals["rss_bytes"] = 0
            try:
                sizes = state.regex_solver.state.cache_sizes()
                vitals["caches"] = {
                    "entries_total": sizes["entries_total"],
                    "approx_bytes": sizes["approx_bytes"],
                }
            except Exception:
                # racing the solver thread mid-rebuild: skip this beat's
                # cache levels rather than crash the heartbeat thread
                vitals["caches"] = {}
        return self.recorder.record("heartbeat", **vitals)

    def _beat(self):
        if self._result_q is None:
            return
        try:
            self._result_q.put(self.heartbeat())
        except Exception:  # pragma: no cover - queue torn down mid-exit
            pass

    def _heartbeat_loop(self):
        while not self._stop.wait(self.heartbeat_s):
            self._beat()

    # -- per-task hooks ----------------------------------------------------

    def task_started(self, task):
        self.recorder.set_job(task.get("name"))
        self.recorder.emit(
            "task.start", name=task.get("name"),
            task_kind=task.get("kind"), index=task.get("index", 0),
        )
        # the task-level span: one per task, so the timeline shows each
        # worker's busy intervals even without solver-internal tracing
        # (a SIGKILL mid-task loses it with the rest of the process —
        # the task.start event above is the durable record)
        self._task_span = self.recorder.span(
            "task:%s" % task.get("name"), kind=task.get("kind"),
        )
        self._task_span.__enter__()

    def task_finished(self, task, out):
        """Close the task span, emit ``task.end``, run slow-query
        capture; every record of the task is on disk afterwards."""
        span, self._task_span = self._task_span, None
        if span is not None:
            span.__exit__(None, None, None)
        elapsed = out.get("elapsed", 0.0)
        self.recorder.emit(
            "task.end", name=task.get("name"), index=task.get("index", 0),
            status=out.get("status", "error"), elapsed=elapsed,
        )
        trigger = self._slow_trigger(out)
        if trigger is not None and task.get("kind") != "crash":
            path = capture_artifact(
                self.flight_dir, task, out, self.config,
                worker=self.worker_id, pid=self.pid, trigger=trigger,
            )
            self.captured += 1
            self.recorder.emit(
                "slow.capture", name=task.get("name"),
                artifact=os.path.relpath(path, self.flight_dir),
                elapsed=elapsed, trigger=trigger,
            )
        self.recorder.set_job(None)

    def _slow_trigger(self, out):
        elapsed = out.get("elapsed", 0.0)
        if self.slow_s is not None and elapsed >= self.slow_s:
            return "latency>=%.3fs" % self.slow_s
        if self.slow_explored:
            explored = (out.get("stats") or {}).get("explored", 0)
            if explored >= self.slow_explored:
                return "explored>=%d" % self.slow_explored
        return None

    def close(self, tasks=0, retiring=False, reason=None):
        """Final flush: stop heartbeats, record ``worker.exit`` and
        close the stream (open spans written as unfinished)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
        self._beat()
        self.recorder.emit(
            "worker.exit", tasks=tasks, retiring=bool(retiring),
            reason=reason,
        )
        self.recorder.close()


# -- the pool-side recorder ---------------------------------------------------


class PoolFlight:
    """The parent process's half: the pool lane's recorder (fleet and
    daemon events, relayed heartbeats) and the final timeline merge."""

    def __init__(self, flight_dir):
        self.flight_dir = str(flight_dir)
        os.makedirs(slow_dir(self.flight_dir), exist_ok=True)
        self.recorder = Recorder(
            events_path(self.flight_dir, POOL_LANE), worker=POOL_LANE,
            keep=False,
        )

    def finish(self, results=0):
        """Close the stream and write the merged ``timeline.json``;
        returns the timeline path (None if merging failed)."""
        self.recorder.emit("pool.end", results=results)
        self.recorder.close()
        try:
            return write_timeline(self.flight_dir)
        except (OSError, ValueError):  # pragma: no cover - disk gone
            return None
