"""Batch results: per-task outcomes and the aggregated report.

The batch layer's contract is that *every* submitted job produces
exactly one :class:`TaskResult`, in submission order, no matter what
happened to the worker that ran it — solver answers, typed solver
errors, and pool-level failures (crashed or reaped workers) all land in
the same shape.  ``status`` extends the solver's ``sat``/``unsat``/
``unknown`` with ``error`` for tasks that could not produce a solver
verdict at all.
"""

ERROR = "error"


class TaskResult:
    """Outcome of one batch job."""

    __slots__ = (
        "index", "name", "status", "witness", "model", "reason", "error",
        "elapsed", "worker", "attempts", "stats", "explanation",
    )

    def __init__(self, index, name, status, witness=None, model=None,
                 reason=None, error=None, elapsed=0.0, worker=None,
                 attempts=1, stats=None, explanation=None):
        self.index = index
        self.name = name
        self.status = status
        self.witness = witness
        self.model = model
        self.reason = reason
        self.error = error          # {"type": ..., "message": ...} or None
        self.elapsed = elapsed
        self.worker = worker
        self.attempts = attempts
        self.stats = stats if stats is not None else {}
        #: provenance summary dict from an explain-enabled worker
        #: (``{"kind", ..., "certificate_checked"}``) or None
        self.explanation = explanation

    @property
    def is_error(self):
        return self.status == ERROR

    def to_dict(self):
        out = {
            "index": self.index,
            "name": self.name,
            "status": self.status,
            "elapsed": self.elapsed,
            "worker": self.worker,
            "attempts": self.attempts,
        }
        for key in ("witness", "model", "reason", "error", "explanation"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.stats:
            out["stats"] = self.stats
        return out

    def __repr__(self):
        extra = ", error=%r" % (self.error,) if self.error else ""
        return "TaskResult(#%d %s: %s%s)" % (
            self.index, self.name, self.status, extra
        )


def merge_numeric(into, mapping):
    """Sum ``mapping``'s numeric scalars into ``into``.  Nested dicts
    are skipped: a ``lifetime`` reading is cumulative over the worker's
    earlier tasks and would count them again."""
    for key, value in mapping.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            into[key] = into.get(key, 0) + value
    return into


class BatchReport:
    """Order-stable results plus batch-level aggregation.

    ``wall_s`` is the parent's elapsed time around the whole batch;
    ``cpu_s`` sums the per-task solve times across all workers — with
    ``N`` busy workers, ``cpu_s`` approaches ``N x wall_s``, and the
    two are reported separately precisely so parallel runs stay
    comparable to serial ones.
    """

    __slots__ = (
        "results", "wall_s", "cpu_s", "workers", "retries", "counters",
        "worker_metrics", "recycled", "worker_reports", "heartbeats",
        "flight_dir",
    )

    def __init__(self, results, wall_s, workers, retries=0,
                 worker_metrics=None, recycled=0, worker_reports=None,
                 heartbeats=None, flight_dir=None):
        self.results = sorted(results, key=lambda r: r.index)
        self.wall_s = wall_s
        self.cpu_s = sum(r.elapsed for r in self.results)
        self.workers = workers
        self.retries = retries
        #: workers replaced by planned retirement (recycling), not crashes
        self.recycled = recycled
        #: per-worker final reports (tasks done, retirement reason, RSS)
        #: from every cleanly-exiting worker, recycled or shut down
        self.worker_reports = list(worker_reports or ())
        #: flight-recorder heartbeats in arrival order (arrival order is
        #: per-worker order: each worker's beats ride one FIFO channel)
        self.heartbeats = list(heartbeats or ())
        #: the flight directory this batch recorded into, or None
        self.flight_dir = flight_dir
        #: summed per-task solver counters (explored, sat_checks, ...)
        self.counters = {}
        for result in self.results:
            if result.stats:
                merge_numeric(self.counters, result.stats)
        self.counters.pop("elapsed", None)
        #: merged final metric-registry snapshots of the workers that
        #: shut down cleanly (a killed worker cannot report its own)
        self.worker_metrics = {}
        for snapshot in worker_metrics or ():
            merge_numeric(self.worker_metrics, snapshot)

    @property
    def counts(self):
        out = {"sat": 0, "unsat": 0, "unknown": 0, "error": 0}
        for result in self.results:
            out[result.status] = out.get(result.status, 0) + 1
        return out

    @property
    def errors(self):
        return [r for r in self.results if r.is_error]

    @property
    def certified(self):
        """Counts of explained verdicts: ``checked`` passed the
        independent checker in the worker, ``rejected`` failed it
        (a rejected certificate on an otherwise clean batch is a bug
        report), ``unchecked`` carried no checkable certificate."""
        out = {"checked": 0, "rejected": 0, "unchecked": 0}
        for result in self.results:
            explanation = result.explanation
            if explanation is None:
                continue
            verdict = explanation.get("certificate_checked")
            if verdict is True:
                out["checked"] += 1
            elif verdict is False:
                out["rejected"] += 1
            else:
                out["unchecked"] += 1
        return out

    def heartbeats_by_worker(self):
        """Heartbeats grouped per worker id, each group preserving the
        worker's own emission order."""
        out = {}
        for beat in self.heartbeats:
            out.setdefault(beat.get("worker"), []).append(beat)
        return out

    def to_dict(self):
        out = {
            "results": [r.to_dict() for r in self.results],
            "counts": self.counts,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "workers": self.workers,
            "retries": self.retries,
            "recycled": self.recycled,
            "certified": self.certified,
            "counters": dict(self.counters),
            "worker_metrics": dict(self.worker_metrics),
            "worker_reports": [dict(r) for r in self.worker_reports],
        }
        if self.flight_dir is not None:
            out["flight_dir"] = str(self.flight_dir)
            out["heartbeats"] = len(self.heartbeats)
        return out

    def summary_line(self):
        counts = self.counts
        line = (
            "%d jobs: %d sat, %d unsat, %d unknown, %d error | "
            "wall %.2fs cpu %.2fs on %d workers (%d retries)"
            % (len(self.results), counts["sat"], counts["unsat"],
               counts["unknown"], counts["error"], self.wall_s, self.cpu_s,
               self.workers, self.retries)
        )
        if self.recycled:
            line += " (%d recycled)" % self.recycled
        certified = self.certified
        if any(certified.values()):
            line += " | certificates: %d checked, %d rejected" % (
                certified["checked"], certified["rejected"]
            )
        if self.flight_dir is not None:
            line += " | flight: %s (%d heartbeats)" % (
                self.flight_dir, len(self.heartbeats)
            )
        return line

    def __repr__(self):
        return "BatchReport(%s)" % self.summary_line()
