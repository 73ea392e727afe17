"""repro.serve — the batched, sharded parallel solving layer.

Fans a stream of problems (SMT-LIB files, JSONL job files, or
in-process formulas) across a pool of worker processes, each owning its
own :class:`~repro.regex.builder.RegexBuilder` / solvers / persistent
graph ``G``, with deterministic per-task fuel budgets, crash and hang
isolation (a dead or wedged worker becomes a structured ``error`` /
``unknown`` record, never a batch-aborting traceback), bounded
retry-on-crash, and order-stable result aggregation::

    from repro.serve import jobs_from_directory, solve_batch

    report = solve_batch(jobs_from_directory("problems/"), workers=4,
                         fuel=200000, seconds=2.0)
    for r in report.results:       # one per job, in submission order
        print(r.name, r.status, r.error)
    print(report.summary_line())   # wall vs aggregate CPU time

There is one way to run a job.  :class:`WorkerPool` is the one pool
loop: ``solve_batch`` is ``WorkerPool(workers=N, **options).run(jobs)``
(the options are documented on the class), the bench matrix and the
CLI's ``batch`` / ``solve --jobs`` run batches on it, and the
:class:`SolverDaemon` drives its streaming core.  Its workers run one
executor per job kind, shared with the in-process paths: ``pattern``
jobs answer through :func:`repro.solver.smt.solve_and_replay`, as
``repro check`` does, and ``bench`` jobs through
:func:`repro.bench.harness.solve_cell`, as the serial harness does.
"""

from repro.serve.admission import Admission, AdmissionController, TokenBucket
from repro.serve.client import DaemonClient, DaemonError, parse_address
from repro.serve.daemon import SolverDaemon
from repro.serve.jobs import (
    Job, jobs_from_directory, jobs_from_files, jobs_from_formulas,
    jobs_from_jsonl, load_jobs,
)
from repro.serve.pool import (
    DEFAULT_REAP_GRACE, PoolInterrupted, WorkerPool, solve_batch,
)
from repro.serve.report import BatchReport, TaskResult, merge_numeric

__all__ = [
    "Job", "jobs_from_directory", "jobs_from_files", "jobs_from_formulas",
    "jobs_from_jsonl", "load_jobs",
    "WorkerPool", "solve_batch", "DEFAULT_REAP_GRACE", "PoolInterrupted",
    "BatchReport", "TaskResult", "merge_numeric",
    "SolverDaemon", "DaemonClient", "DaemonError", "parse_address",
    "Admission", "AdmissionController", "TokenBucket",
]
