"""The worker pool: sharded dispatch, crash isolation, aggregation.

Design notes
------------

* **Depth-one dispatch.**  Each worker holds at most one in-flight
  task, so the pool always knows exactly which task a dead or wedged
  worker was running — crash attribution needs no guesswork.
* **Per-worker queues.**  Every worker gets its own task *and* result
  queue.  A SIGKILLed worker can die mid-``put``, leaving a partial
  pickle in its result pipe; with per-worker queues that corruption is
  confined to the dead worker's (discarded) queue instead of breaking
  the whole pool, which is how ``ProcessPoolExecutor`` ends up in
  ``BrokenProcessPool``.
* **Deterministic budgets.**  Tasks carry fuel budgets through the
  pool untouched, so a batch run returns the same verdicts as a serial
  run regardless of worker count; only wall time changes.
* **Reaping.**  A worker past its deadline (task wall budget plus
  ``reap_grace``) is killed and its task recorded as a structured
  ``unknown``; a worker that died on its own is recorded as ``error``
  and the task retried on a fresh worker up to ``retries`` times.
* **Two lifetimes, one loop.**  :meth:`WorkerPool.run` is the
  one-shot batch driver; underneath it sits a streaming core —
  :meth:`start`, :meth:`submit`, :meth:`pump`, :meth:`take_completed`,
  :meth:`stop` — that the solver daemon (:mod:`repro.serve.daemon`)
  drives directly, feeding an ongoing job stream into a pool whose
  workers keep their warm store and caches across submissions.  The
  pool owns the only idle wait (:meth:`pump` sleeps after a sweep that
  made no progress), so neither driver polls on its own.
* **Signal safety.**  ``run`` installs a SIGTERM handler for its
  duration and converts the signal (or a ``KeyboardInterrupt``, or any
  other exception) into an emergency :meth:`kill`: workers get SIGTERM,
  stragglers SIGKILL after a short grace.  Only a graceful
  :meth:`stop` saves the store, so a half-run batch never leaks orphan
  processes or clobbers the store with a partial capture.
"""

import itertools
import queue as queue_mod
import signal
import threading
import time
from collections import deque
from multiprocessing import get_all_start_methods, get_context

from repro.serve.report import BatchReport, TaskResult
from repro.serve.worker import worker_main

#: Extra wall seconds past a task's own budget before its worker is
#: declared wedged and reaped.
DEFAULT_REAP_GRACE = 10.0

#: Idle sleep between sweeps when no worker produced a message.
_POLL_SLEEP = 0.02

#: Workers fork where the platform supports it, else use its default.
_START_METHOD = "fork" if "fork" in get_all_start_methods() else None

#: Abort threshold for workers that die before taking any task (e.g.
#: an import failure on spawn) — prevents an infinite respawn loop.
_MAX_IDLE_DEATHS = 8

#: How many queued tasks the affinity router inspects when a worker
#: frees up.  A bounded scan keeps dispatch O(1)-ish; a repeat pattern
#: deeper in the queue simply dispatches in arrival order.
_AFFINITY_SCAN = 32

#: The affinity map is keyed by payload text; a long-lived daemon sees
#: an unbounded key stream, so the map is cleared when it reaches this
#: size (routing is a latency hint only — clearing never changes
#: verdicts).
_AFFINITY_CAP = 4096

#: Streaming mode keeps at most this many per-worker retirement
#: reports / heartbeats; a daemon recycling workers for days must not
#: grow its report history without bound.
_HISTORY_CAP = 1024

#: Seconds SIGTERM'd workers get to exit before the emergency shutdown
#: escalates to SIGKILL.
KILL_GRACE = 2.0


class PoolInterrupted(BaseException):
    """Raised by the pool's temporary SIGTERM handler.

    A ``BaseException`` on purpose: broad ``except Exception`` handlers
    between the signal and the pool's cleanup must not swallow it —
    the whole point is reaching the worker-killing ``finally``.
    """


def _affinity_key(task):
    """The routing key for warm-store affinity: the raw payload text of
    pattern/smt2 tasks (what the store keys on, pre-canonicalization).
    Bench and crash tasks have no reusable fragments — no key."""
    if task.get("kind") in ("pattern", "smt2"):
        payload = task.get("payload")
        if isinstance(payload, str):
            return (task["kind"], payload)
    return None


class _Worker:
    __slots__ = (
        "id", "proc", "task_q", "result_q", "task", "deadline", "retiring",
    )

    def __init__(self, id, proc, task_q, result_q):
        self.id = id
        self.proc = proc
        self.task_q = task_q
        self.result_q = result_q
        self.task = None        # the in-flight task dict, if any
        self.deadline = None
        self.retiring = False   # announced planned retirement (recycling)


class WorkerPool:
    """Fans :class:`~repro.serve.jobs.Job` streams across ``workers``
    processes.

    :meth:`run` is the batch entry point (returns a
    :class:`BatchReport`); the daemon instead calls :meth:`start` once
    and then interleaves :meth:`submit` / :meth:`pump` /
    :meth:`take_completed` forever, so workers — and their warm stores,
    derivative memos and lazy-DFA rows — persist across submissions
    from many clients.  No option changes a verdict.

    ``fuel`` / ``seconds`` are every task's budget (``max_char`` caps
    the character domain); a crashed task is retried ``retries`` times
    and a task past ``seconds`` plus ``reap_grace`` is reaped.
    ``progress(done, None)`` is called as results arrive.

    ``max_tasks`` / ``max_rss_mb`` / ``max_cache_entries`` recycle
    workers at the corresponding watermark (counted in ``report.
    recycled``); ``compact_entries`` arms in-worker cache compaction.
    A recycled worker merely restarts with cold caches.

    ``flight_dir`` arms the flight recorder: per-process event/span
    streams, worker heartbeats (``heartbeat_s`` between beats) and
    slow-query artifacts for tasks past ``slow_s`` seconds or
    ``slow_explored`` explored states land under that directory, plus
    a merged ``timeline.json`` at batch end (see
    :mod:`repro.obs.flight`).  The recorder keeps one task-level span
    per job; ``trace_solver`` additionally streams the solver's
    internal spans into the flight (markedly slower on derivative-heavy
    queries — a debugging mode, not a default).

    ``explain`` turns on verdict provenance in every worker: each
    concrete pattern/smt2 verdict carries a certificate that the
    worker re-checks with the independent checker before reporting,
    and each task result gains an ``explanation`` summary (``report.
    certified`` counts the checked ones).

    ``store_path`` gives every worker (including replacements spawned
    after recycling — a warm restart) a shared read-only warm-store
    snapshot to load on spawn; ``store_save`` additionally captures the
    fragments workers learn and merges them into that file on a
    graceful :meth:`stop`.  Either one also arms affinity routing:
    repeat payloads prefer the worker that already compiled them.  A
    warm hit replays the exact rows a cold solve would rebuild (see
    :mod:`repro.solver.store`)."""

    def __init__(self, workers=2, fuel=None, seconds=None, max_char=None,
                 retries=1, reap_grace=DEFAULT_REAP_GRACE, progress=None,
                 max_tasks=None, max_rss_mb=None, max_cache_entries=None,
                 compact_entries=None, flight_dir=None, slow_s=None,
                 slow_explored=None, heartbeat_s=None, trace_solver=False,
                 explain=False, store_path=None, store_save=None):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.retries = retries
        self.reap_grace = reap_grace
        self.progress = progress
        self.store_path = store_path
        self.store_save = store_save
        #: affinity map for the warm store: task routing key -> id of
        #: the worker that last solved that payload (and so holds its
        #: fragments hot in-process, beyond what the shared snapshot
        #: provides)
        self._affinity = {}
        if flight_dir is not None and slow_s is None and slow_explored is None:
            # flight recording without an explicit threshold still
            # captures: default to the latency trigger
            from repro.obs.flight import DEFAULT_SLOW_S

            slow_s = DEFAULT_SLOW_S
        self.flight_dir = flight_dir
        #: the pool-side flight recorder, live only while the pool flies
        self._flight = None
        # recycling watermarks (max_tasks / max_rss_mb / max_cache_
        # entries), the in-worker compaction policy and the flight-
        # recorder configuration travel to the workers through the
        # shared config dict
        self._config = {
            "fuel": fuel, "seconds": seconds, "max_char": max_char,
            "max_tasks": max_tasks, "max_rss_mb": max_rss_mb,
            "max_cache_entries": max_cache_entries,
            "compact_entries": compact_entries,
            "flight_dir": str(flight_dir) if flight_dir else None,
            "slow_s": slow_s, "slow_explored": slow_explored,
            "heartbeat_s": heartbeat_s, "trace_solver": bool(trace_solver),
            "explain": bool(explain),
            "store_path": str(store_path) if store_path else None,
            "store_capture": bool(store_save),
        }
        self._ctx = get_context(_START_METHOD)
        self._ids = itertools.count()
        # streaming-core state: live between start() and stop()/kill()
        self._fleet = []
        self._pending = deque()     # normal-priority task dicts
        self._degraded = deque()    # degraded-priority (over-budget clients)
        self._state = None
        self._started = False
        self._idle_deaths = 0
        self.broken = False

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(self):
        task_q = self._ctx.SimpleQueue()
        result_q = self._ctx.Queue()
        worker_id = "w%d" % next(self._ids)
        proc = self._ctx.Process(
            target=worker_main,
            args=(worker_id, task_q, result_q, self._config),
            name="repro-serve-%s" % worker_id,
            daemon=True,
        )
        proc.start()
        if self._flight is not None:
            self._flight.events.emit(
                "worker.spawn", spawned=worker_id, spawned_pid=proc.pid,
            )
        return _Worker(worker_id, proc, task_q, result_q)

    def _discard(self, worker):
        """Reap a dead/killed worker's process and queues."""
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join(timeout=5.0)
        worker.result_q.close()
        worker.result_q.cancel_join_thread()

    def _task_deadline(self):
        seconds = self._config.get("seconds")
        if seconds is None:
            return None
        return time.monotonic() + seconds + self.reap_grace

    # -- the streaming core --------------------------------------------------

    def start(self, fleet_size=None, jobs=None):
        """Spawn the fleet and arm the pool for :meth:`submit` /
        :meth:`pump`.  ``fleet_size`` caps the initial spawn below
        ``self.workers`` (the batch path never spawns more workers than
        it has jobs); ``jobs`` is the expected batch size for the
        flight recorder (None for an open-ended stream)."""
        if self._started:
            raise RuntimeError("pool already started")
        self._state = {
            "results": {}, "retries": 0, "worker_metrics": [],
            "stats_seen": 0, "recycled": 0,
            "worker_reports": deque(maxlen=_HISTORY_CAP),
            "heartbeats": deque(maxlen=_HISTORY_CAP), "store_new": [],
        }
        self._pending.clear()
        self._degraded.clear()
        self._idle_deaths = 0
        self.broken = False
        if self.flight_dir is not None:
            from repro.obs.flight import PoolFlight

            self._flight = PoolFlight(self.flight_dir)
            self._flight.events.emit(
                "pool.start", jobs=jobs, workers=self.workers,
            )
        size = self.workers
        if fleet_size is not None:
            size = max(1, min(self.workers, fleet_size))
        self._fleet = [self._spawn() for _ in range(size)]
        self._started = True

    def submit(self, task, degraded=False):
        """Queue one task dict (see :meth:`repro.serve.jobs.Job.to_task`
        for the shape).  ``degraded`` tasks only dispatch when no
        normal-priority task is waiting — the admission controller's
        lever for serving compliant clients first."""
        if not self._started:
            raise RuntimeError("pool is not started")
        (self._degraded if degraded else self._pending).append(task)

    @property
    def queued(self):
        """Tasks accepted but not yet dispatched to a worker."""
        return len(self._pending) + len(self._degraded)

    @property
    def inflight(self):
        """Tasks currently being solved by a worker."""
        return sum(1 for w in self._fleet if w.task is not None)

    @property
    def backlog(self):
        """Queued plus in-flight: everything accepted but unfinished."""
        return self.queued + self.inflight

    def worker_pids(self):
        """PIDs of the current fleet (diagnostics and the shutdown
        regression test)."""
        return [w.proc.pid for w in self._fleet]

    def pump(self):
        """One scheduling sweep: dispatch idle workers and drain result
        queues.  A sweep where no message arrived waits out the poll
        interval (the pool's only idle wait, so callers loop on
        ``pump()`` without sleeping) and then runs the health check
        (crash/reap detection).  Returns True when a message arrived.
        """
        state = self._state
        for worker in self._fleet:
            if worker.task is None and not worker.retiring and self.queued:
                task = self._next_task(worker)
                worker.task = task
                worker.deadline = self._task_deadline()
                worker.task_q.put(task)
        if self._sweep():
            return True
        new_fleet = []
        broken = False
        for worker in self._fleet:
            outcome = self._check_health(worker, state)
            if outcome is None:
                new_fleet.append(worker)
            elif outcome is worker:
                # idle death (already discarded): respawn unless
                # workers keep dying before taking any task
                self._idle_deaths += 1
                if self._idle_deaths > _MAX_IDLE_DEATHS:
                    broken = True
                else:
                    new_fleet.append(self._spawn())
            else:
                new_fleet.append(outcome)
        self._fleet = new_fleet
        if broken or not self._fleet:
            self.broken = True
        if self.broken:
            # workers keep dying before accepting work: fail what is
            # queued with structured errors instead of looping forever
            self._fail_pending()
        return False

    def take_completed(self):
        """Pop every finished :class:`TaskResult`, ascending by index.
        The streaming consumer's half of the contract — the batch
        driver instead leaves results in place until the batch ends."""
        results = self._state["results"]
        if not results:
            return []
        out = [results[i] for i in sorted(results)]
        results.clear()
        return out

    def stop(self):
        """Graceful shutdown: sentinel every live worker, collect their
        final stats/metrics snapshots (bounded wait), reap the fleet,
        and merge the fragments they learned into ``store_save``.
        Returns the merged worker metrics list."""
        worker_metrics = self._collect_final_stats()
        self._fleet = []
        self._save_store()
        if self._flight is not None:
            self._flight.finish(results=len(self._state["results"]))
            self._flight = None
        self._started = False
        return worker_metrics

    def kill(self, grace=KILL_GRACE):
        """Emergency shutdown for the signal path: SIGTERM the fleet,
        SIGKILL stragglers after ``grace`` seconds, skip the stats
        barrier and the store save entirely.  Never raises."""
        fleet, self._fleet = self._fleet, []
        for worker in fleet:
            try:
                worker.proc.terminate()
            except (OSError, ValueError):  # pragma: no cover
                pass
        deadline = time.monotonic() + grace
        for worker in fleet:
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in fleet:
            try:
                self._discard(worker)
            except (OSError, ValueError):  # pragma: no cover
                pass
        if self._flight is not None:
            try:
                self._flight.finish(
                    results=len(self._state["results"]) if self._state else 0,
                )
            except Exception:  # pragma: no cover - flight dir gone
                pass
            self._flight = None
        self._started = False

    # -- the batch driver ----------------------------------------------------

    def run(self, jobs):
        """Solve a finite job list; returns an order-stable
        :class:`BatchReport`.

        An empty list returns an empty report without spawning workers;
        duplicate job names raise ``ValueError`` up front (report rows,
        JSONL output and result routing are keyed by name — silently
        clobbering one of the duplicates helps nobody).  Any exception
        mid-batch — SIGTERM and ``KeyboardInterrupt`` included —
        triggers :meth:`kill` (no orphan workers, no partial store
        save) and re-raises.
        """
        jobs = list(jobs)
        seen, duplicates = set(), set()
        for job in jobs:
            if job.name in seen:
                duplicates.add(job.name)
            seen.add(job.name)
        if duplicates:
            raise ValueError(
                "duplicate job name%s in batch: %s"
                % ("s" if len(duplicates) > 1 else "",
                   ", ".join(repr(n) for n in sorted(duplicates)))
            )
        if not jobs:
            return BatchReport([], 0.0, self.workers)
        started = time.perf_counter()
        total = len(jobs)
        previous_term = None
        def _on_term(signum, frame):
            raise PoolInterrupted("SIGTERM during batch")
        if threading.current_thread() is threading.main_thread():
            try:
                previous_term = signal.signal(signal.SIGTERM, _on_term)
            except (ValueError, OSError):  # pragma: no cover - exotic host
                previous_term = None
        try:
            self.start(fleet_size=total, jobs=total)
            state = self._state
            for i, job in enumerate(jobs):
                self.submit(job.to_task(i))
            while len(state["results"]) < total:
                self.pump()
            worker_metrics = self.stop()
        finally:
            if previous_term is not None:
                # a second SIGTERM racing the cleanup must not abort
                # the worker kill and re-orphan the fleet: ignore the
                # signal until the fleet is dead, then restore
                try:
                    signal.signal(signal.SIGTERM, signal.SIG_IGN)
                except (ValueError, OSError):  # pragma: no cover
                    pass
            if self._started:
                # stop() never finished: an exception or a signal broke
                # the batch, so no worker may outlive it and no partial
                # capture may be saved
                self.kill()
            if previous_term is not None:
                signal.signal(signal.SIGTERM, previous_term)
        wall = time.perf_counter() - started
        results = [state["results"][i] for i in sorted(state["results"])]
        return BatchReport(
            results, wall, self.workers, retries=state["retries"],
            worker_metrics=worker_metrics, recycled=state["recycled"],
            worker_reports=list(state["worker_reports"]),
            heartbeats=list(state["heartbeats"]), flight_dir=self.flight_dir,
        )

    def _next_task(self, worker):
        """Pick this worker's next task, preferring payloads it has
        solved before (warm-store affinity), and normal-priority tasks
        over degraded ones.

        Without a store every dispatch is ``popleft`` — arrival order
        within each priority band.  With one, a bounded scan of the
        queue head looks for a task whose payload this worker already
        compiled: its in-process rows make the repeat essentially free,
        where another worker would at best replay the shared snapshot.
        Verdicts never depend on the routing — only latency does."""
        for pending in (self._pending, self._degraded):
            if not pending:
                continue
            if self.store_path or self.store_save:
                for i in range(min(len(pending), _AFFINITY_SCAN)):
                    key = _affinity_key(pending[i])
                    if key is not None and self._affinity.get(key) == worker.id:
                        task = pending[i]
                        del pending[i]
                        return task
            task = pending.popleft()
            key = _affinity_key(task)
            if key is not None:
                if len(self._affinity) >= _AFFINITY_CAP:
                    self._affinity.clear()
                self._affinity[key] = worker.id
            return task
        return None

    def _sweep(self):
        """Drain every worker's result queue once; after a sweep where
        nothing arrived, wait out ``_POLL_SLEEP`` before returning.
        True if anything arrived."""
        progressed = False
        for worker in self._fleet:
            progressed |= self._pump(worker, self._state)
        if not progressed:
            time.sleep(_POLL_SLEEP)
        return progressed

    def _pump(self, worker, state):
        """Drain one worker's result queue; True if anything arrived."""
        progressed = False
        while True:
            try:
                msg = worker.result_q.get_nowait()
            except queue_mod.Empty:
                return progressed
            except Exception:
                # partial pickle from a dying worker; the health check
                # will pick the body up
                return progressed
            progressed = True
            self._handle(worker, msg, state)

    def _handle(self, worker, msg, state):
        kind = msg.get("type")
        if kind == "result":
            index = msg["index"]
            if index in state["results"]:
                return  # late duplicate after a pool-synthesized verdict
            state["results"][index] = TaskResult(
                index, msg.get("name"), msg.get("status", "error"),
                witness=msg.get("witness"), model=msg.get("model"),
                reason=msg.get("reason"), error=msg.get("error"),
                elapsed=msg.get("elapsed", 0.0), worker=msg.get("worker"),
                attempts=msg.get("attempts", 1), stats=msg.get("stats"),
                outcome=msg.get("outcome"),
                explanation=msg.get("explanation"),
            )
            # a real result proves workers can run tasks: reset the
            # spawn-failure abort counter so a long-lived pool is not
            # broken by deaths spread over days
            self._idle_deaths = 0
            if worker.task is not None and worker.task["index"] == index:
                worker.task = None
                worker.deadline = None
            if self.progress is not None:
                self.progress(len(state["results"]), None)
        elif kind == "heartbeat":
            state["heartbeats"].append(msg)
            if self._flight is not None:
                self._flight.record_heartbeat(msg)
        elif kind == "stats":
            state["worker_metrics"].append(msg.get("metrics") or {})
            report = {
                "worker": msg.get("worker"),
                "tasks": msg.get("tasks", 0),
                "retiring": bool(msg.get("retiring")),
                "reason": msg.get("reason"),
                "rss_bytes": msg.get("rss_bytes", 0),
            }
            store = msg.get("store")
            if store is not None:
                report["store"] = {
                    "hits": store.get("hits", 0),
                    "misses": store.get("misses", 0),
                    "fragments": store.get("fragments", 0),
                }
                state["store_new"].extend(store.get("new") or ())
            state["worker_reports"].append(report)
            if msg.get("retiring"):
                # planned retirement mid-batch: the health check will
                # replace this worker without charging a crash, and the
                # shutdown barrier must not count this snapshot
                worker.retiring = True
                state["recycled"] += 1
                if self._flight is not None:
                    self._flight.events.emit(
                        "worker.recycle", recycled=worker.id,
                        reason=msg.get("reason"),
                    )
            else:
                state["stats_seen"] += 1

    def _check_health(self, worker, state):
        """Detect crashed or wedged workers.

        Returns None when the worker is healthy, a fresh replacement
        worker after a crash/reap, or ``worker`` itself to signal an
        idle death (counted toward the respawn abort threshold).
        """
        alive = worker.proc.is_alive()
        if worker.task is None:
            if alive:
                return None
            self._discard(worker)
            if self._flight is not None and not worker.retiring:
                self._flight.events.emit(
                    "worker.crash", crashed=worker.id, name=None,
                    exitcode=worker.proc.exitcode, idle=True,
                )
            if worker.retiring:
                # planned retirement, stats already merged: replace it
                # directly instead of counting an idle death
                return self._spawn()
            return worker  # idle death: caller counts and respawns
        now = time.monotonic()
        if alive and (worker.deadline is None or now < worker.deadline):
            return None
        if alive:
            # wedged: kill it, then drain any result that raced the kill
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
            self._pump(worker, state)
            task = worker.task
            if self._flight is not None:
                self._flight.events.emit(
                    "worker.reap", reaped=worker.id,
                    name=task["name"] if task else None,
                )
            if task is not None and task["index"] not in state["results"]:
                budget = self._config.get("seconds")
                state["results"][task["index"]] = TaskResult(
                    task["index"], task["name"], "unknown",
                    reason="worker reaped",
                    error={
                        "type": "WorkerTimeout",
                        "message": "worker %s reaped after exceeding the "
                                   "%.1fs task budget by %.1fs grace"
                                   % (worker.id, budget or 0.0,
                                      self.reap_grace),
                    },
                    elapsed=budget or 0.0, worker=worker.id,
                    attempts=task["attempts"] + 1,
                )
                if self.progress is not None:
                    self.progress(len(state["results"]), None)
        else:
            # crashed mid-task: maybe its result is already in the pipe
            self._pump(worker, state)
            task = worker.task
            if self._flight is not None:
                self._flight.events.emit(
                    "worker.crash", crashed=worker.id,
                    name=task["name"] if task else None,
                    exitcode=worker.proc.exitcode,
                )
            if task is not None and task["index"] not in state["results"]:
                if worker.retiring:
                    # the dispatch raced a planned retirement: the task
                    # was queued to a worker that had already decided to
                    # exit; requeue it with no attempt penalty
                    self._pending.appendleft(task)
                elif task["attempts"] < self.retries:
                    task["attempts"] += 1
                    state["retries"] += 1
                    self._pending.appendleft(task)
                    if self._flight is not None:
                        self._flight.events.emit(
                            "task.retry", name=task["name"],
                            index=task["index"],
                        )
                else:
                    state["results"][task["index"]] = TaskResult(
                        task["index"], task["name"], "error",
                        reason="worker crashed",
                        error={
                            "type": "WorkerCrashed",
                            "message": "worker %s exited with code %s while "
                                       "running this task (attempt %d)"
                                       % (worker.id, worker.proc.exitcode,
                                          task["attempts"] + 1),
                        },
                        worker=worker.id, attempts=task["attempts"] + 1,
                    )
                    if self.progress is not None:
                        self.progress(len(state["results"]), None)
        self._discard(worker)
        return self._spawn()

    def _save_store(self):
        """Fold the fragments the workers learned into the snapshot at
        ``store_save`` (merging whatever is already there, plus the
        read snapshot when it is a different file).  Insert-only merge
        over an atomic replace: a concurrent batch's or daemon's
        fragments are never clobbered and a reader never sees a torn
        file."""
        state = self._state
        if not self.store_save or not state["store_new"]:
            return
        from repro.solver.store import SolverStore

        store = SolverStore()
        if self.store_path and str(self.store_path) != str(self.store_save):
            try:
                store.load(self.store_path)
            except (OSError, ValueError):
                pass
        store.merge(state["store_new"])
        try:
            store.save_merged(self.store_save)
        except OSError:
            return
        state["store_new"] = []

    def _fail_pending(self):
        """Workers keep dying before taking any task — fail what's left
        with structured errors rather than looping forever."""
        state = self._state
        leftovers = list(self._pending) + list(self._degraded)
        self._pending.clear()
        self._degraded.clear()
        for worker in self._fleet:
            if worker.task is not None:
                leftovers.append(worker.task)
                worker.task = None
        for task in leftovers:
            if task["index"] not in state["results"]:
                state["results"][task["index"]] = TaskResult(
                    task["index"], task["name"], "error",
                    reason="worker pool broken",
                    error={
                        "type": "WorkerPoolBroken",
                        "message": "workers kept dying before accepting "
                                   "tasks; batch aborted",
                    },
                    attempts=task["attempts"],
                )

    def _collect_final_stats(self):
        """Stop the fleet and collect the final metric snapshots of
        every worker that can still produce one."""
        fleet, state = self._fleet, self._state
        expected = 0
        for worker in fleet:
            if worker.proc.is_alive():
                try:
                    worker.task_q.put(None)
                    expected += 1
                except (OSError, ValueError):  # pragma: no cover
                    pass
        deadline = time.monotonic() + 5.0
        while state["stats_seen"] < expected and time.monotonic() < deadline:
            if not self._sweep() \
                    and all(not w.proc.is_alive() for w in fleet):
                for worker in fleet:
                    self._pump(worker, state)
                break
        for worker in fleet:
            self._discard(worker)
        return state["worker_metrics"]


def solve_batch(jobs, workers=2, **options):
    """Solve ``jobs`` on a fresh :class:`WorkerPool` of ``workers``
    processes (``options`` are the pool's); returns its
    :class:`~repro.serve.report.BatchReport`, one order-stable result
    per job.  No input, however pathological, can abort the batch:
    crashes and hangs become structured ``error`` / ``unknown``
    records."""
    return WorkerPool(workers=workers, **options).run(jobs)
