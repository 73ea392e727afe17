"""The batch worker: one process, one solver stack, many tasks.

Each worker owns a private :class:`~repro.regex.builder.RegexBuilder`,
a persistent :class:`~repro.solver.engine.RegexSolver` (whose graph
``G`` and derivative memos accumulate across the worker's tasks, the
same way a long-lived solver process would warm up), and an
:class:`~repro.solver.smt.SmtSolver` on top.

Every task produces exactly one result message; *any* exception during
solving is mapped to a structured ``error`` result — the worker loop
itself must only die if its process is killed (which the pool treats
as a crash and isolates to the task that was running).  No sat answer
leaves a worker unchecked: ``smt2`` models are validated by
:class:`~repro.solver.smt.SmtSolver`, and ``pattern`` witnesses are
replayed through the reference semantics by
:func:`~repro.solver.smt.solve_and_replay`, as in ``repro check``.
"""

import os
import signal
import time

from repro.alphabet import IntervalAlgebra
from repro.errors import ReproError
from repro.obs import Observability
from repro.regex import RegexBuilder, parse
from repro.solver.engine import RegexSolver
from repro.solver.lifecycle import CompactionPolicy
from repro.solver.result import Budget, error_info
from repro.solver.smt import SmtSolver, solve_and_replay

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes():
    """Resident set size of this process in bytes.

    Reads ``/proc/self/statm``; falls back to ``ru_maxrss`` (then the
    value is the process *peak*, which is fine for a recycle watermark)
    and to 0 where neither source exists."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - exotic platforms
        return 0


class WorkerState:
    """The per-process solver stack (built once, reused per task)."""

    def __init__(self, config, obs=None):
        max_char = config.get("max_char")
        algebra = (
            IntervalAlgebra(max_char) if max_char else IntervalAlgebra()
        )
        compact_entries = config.get("compact_entries")
        policy = (
            CompactionPolicy(max_entries=compact_entries)
            if compact_entries else None
        )
        self.config = config
        self.builder = RegexBuilder(algebra)
        # flight-recorded workers pass the recorder's bundle so
        # solver-layer events (and spans, with trace_solver) land in
        # the flight directory
        self.obs = obs if obs is not None else Observability()
        # the warm store: every worker loads the shared snapshot on
        # spawn — including replacements for recycled workers, which is
        # what turns recycling into a *warm* restart — and captures new
        # fragments to ship back in its final stats message
        self.store = None
        store_path = config.get("store_path")
        if store_path or config.get("store_capture"):
            from repro.solver.store import SolverStore

            self.store = SolverStore()
            if store_path:
                try:
                    self.store.load(store_path)
                except (OSError, ValueError):
                    # unreadable snapshot: solve cold rather than die
                    self.store = SolverStore()
        self.regex_solver = RegexSolver(
            self.builder, obs=self.obs, compaction=policy,
            explain=bool(config.get("explain")), store=self.store,
        )
        self.smt_solver = SmtSolver(self.builder, self.regex_solver)
        self.tasks_done = 0

    def budget(self):
        return Budget(
            fuel=self.config.get("fuel"), seconds=self.config.get("seconds")
        )

    def should_retire(self):
        """A reason string when this worker should be recycled, else
        None.  Checked between tasks only, so retirement never
        interrupts a solve."""
        max_tasks = self.config.get("max_tasks")
        if max_tasks and self.tasks_done >= max_tasks:
            return "task budget (%d tasks)" % self.tasks_done
        max_rss_mb = self.config.get("max_rss_mb")
        if max_rss_mb:
            rss = rss_bytes()
            if rss >= max_rss_mb * 1024 * 1024:
                return "rss watermark (%.1f MiB)" % (rss / 1048576.0)
        max_cache = self.config.get("max_cache_entries")
        if max_cache:
            entries = self.regex_solver.state.cache_sizes()["entries_total"]
            if entries >= max_cache:
                return "cache watermark (%d entries)" % entries
        return None


def _result_explanation(result):
    """A JSON-safe explanation summary for a result, or None.

    When the verdict carries a checkable certificate the worker runs
    the independent checker *here*, in-process, so the summary shipped
    to the pool already says whether the proof held up.
    """
    explanation = getattr(result, "explanation", None)
    if explanation is None:
        return None
    try:
        if explanation.certifiable():
            explanation.check()
        return explanation.to_dict()
    except Exception as exc:
        return {"kind": explanation.kind, "error": error_info(exc)}


def solve_payload(state, kind, payload):
    """The :class:`~repro.solver.result.SolverResult` of a ``pattern``
    (through :func:`~repro.solver.smt.solve_and_replay`) or ``smt2``
    payload on ``state``'s stack: what the worker's executors and the
    flight recorder's certificates solve with."""
    if kind == "pattern":
        return solve_and_replay(
            state.regex_solver, parse(state.builder, payload), state.budget()
        )
    from repro.smtlib.interp import run_script

    return run_script(
        state.builder, payload, solver=state.smt_solver,
        budget=state.budget(),
    )


def _solve(state, task):
    """The ``pattern`` and ``smt2`` executor: a witness or a model,
    plus the checked explanation summary when provenance is on."""
    result = solve_payload(state, task["kind"], task["payload"])
    answer = "witness" if task["kind"] == "pattern" else "model"
    out = {
        "status": result.status,
        answer: getattr(result, answer),
        "reason": result.reason,
        "error": result.error,
        "stats": result.stats,
    }
    explanation = _result_explanation(result)
    if explanation is not None:
        out["explanation"] = explanation
    return out


def _crash(state, task):
    mode = task["payload"]
    if mode == "kill":
        # simulate a hard crash (segfault-style): no cleanup, no result
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "hang":
        # simulate a wedged worker; the pool must reap us
        while True:  # pragma: no cover - killed externally
            time.sleep(3600)
    raise ValueError("unknown crash mode %r" % (mode,))


_EXECUTORS = {
    "smt2": _solve,
    "pattern": _solve,
    "crash": _crash,
}


def execute_task(state, task):
    """Run one task dict; always returns a result payload dict."""
    started = time.perf_counter()
    try:
        out = _EXECUTORS[task["kind"]](state, task)
    except ReproError as exc:
        # typed library errors: bad syntax, unsupported constructs, ...
        out = {"status": "error", "error": error_info(exc)}
    except (RecursionError, MemoryError) as exc:
        # solver entry points map these already; this is the backstop
        # for overflow outside them (e.g. while parsing the payload)
        out = {"status": "error", "error": error_info(exc)}
    except Exception as exc:
        out = {"status": "error", "error": error_info(exc)}
    out["elapsed"] = time.perf_counter() - started
    return out


def worker_main(worker_id, task_q, result_q, config):
    """Process entry point: pull tasks until the ``None`` sentinel or a
    retirement trigger (task budget, RSS or cache watermark).

    Retirement is the bounded-memory half of the pool contract: the
    worker announces it with the same final stats message as a clean
    shutdown (plus ``retiring``/``reason`` fields) and exits; the pool
    merges its metrics and replaces it without charging a crash.

    With ``config["flight_dir"]`` set, the worker carries a
    :class:`~repro.obs.flight.WorkerFlight`: its solver stack writes
    events (and spans) into the worker's record stream in the flight
    directory, a heartbeat thread ships heartbeat records up
    ``result_q``, and slow tasks freeze replayable artifacts (see
    :mod:`repro.obs.flight`)."""
    flight = None
    flight_dir = config.get("flight_dir")
    if flight_dir:
        from repro.obs.flight import WorkerFlight

        flight = WorkerFlight(flight_dir, worker_id, config)
    state = WorkerState(
        config, obs=flight.observability() if flight else None
    )
    if flight:
        flight.start_heartbeats(state, result_q)
    retire_reason = None
    while True:
        task = task_q.get()
        if task is None:
            break
        if flight:
            flight.task_started(task)
        out = execute_task(state, task)
        out.update({
            "type": "result",
            "index": task["index"],
            "name": task["name"],
            "worker": worker_id,
            "attempts": task["attempts"] + 1,
        })
        state.tasks_done += 1
        result_q.put(out)
        if flight:
            flight.task_finished(task, out)
        retire_reason = state.should_retire()
        if retire_reason is not None:
            break
    if flight:
        flight.close(tasks=state.tasks_done,
                     retiring=retire_reason is not None,
                     reason=retire_reason)
    final = {
        "type": "stats",
        "worker": worker_id,
        "tasks": state.tasks_done,
        "metrics": state.obs.metrics.snapshot(),
        "retiring": retire_reason is not None,
        "reason": retire_reason,
        "rss_bytes": rss_bytes(),
    }
    if state.store is not None:
        # ship the learned fragments home: the pool merges them into
        # the saved snapshot so the *next* batch (and the replacements
        # for recycled workers) start warm
        final["store"] = dict(state.store.stats())
        final["store"]["new"] = state.store.export_new()
    result_q.put(final)
