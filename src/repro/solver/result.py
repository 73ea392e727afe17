"""Solver results and resource budgets."""

import time

from repro.errors import BudgetExceeded

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

#: Engine failures that must be mapped to a structured ``unknown``
#: result instead of propagating: runaway recursion on pathologically
#: nested inputs, and allocation failure during exploration.
RESOURCE_ERRORS = (RecursionError, MemoryError)


def error_info(exc):
    """The structured ``SolverResult.error`` payload for an exception."""
    return {
        "type": type(exc).__name__,
        "message": str(exc) or type(exc).__name__,
    }


class Budget:
    """A deterministic fuel counter plus an optional wall-clock limit.

    Fuel makes "timeouts" reproducible across machines: a unit of fuel
    is one unit of solver work (one state expansion, one rule firing).
    ``None`` means unlimited.
    """

    def __init__(self, fuel=None, seconds=None):
        self.fuel = fuel
        self.fuel_used = 0
        self.seconds = seconds
        self.ticks = 0
        self.started = time.perf_counter()

    def tick(self, amount=1):
        """Consume fuel; raise :class:`BudgetExceeded` when exhausted."""
        self.fuel_used += amount
        if self.fuel is not None and self.fuel_used > self.fuel:
            raise BudgetExceeded(
                "fuel exhausted", fuel_used=self.fuel_used, elapsed=self.elapsed
            )
        if self.seconds is not None:
            # check on every tick: the old `fuel_used % 64` guard never
            # fired when a tick with amount > 1 jumped the boundary
            self.ticks += 1
            if self.elapsed > self.seconds:
                raise BudgetExceeded(
                    "wall clock exceeded", fuel_used=self.fuel_used,
                    elapsed=self.elapsed,
                )

    @property
    def elapsed(self):
        return time.perf_counter() - self.started

    def remaining(self):
        if self.fuel is None:
            return None
        return max(self.fuel - self.fuel_used, 0)


class SolverResult:
    """Outcome of a satisfiability-style query.

    ``stats`` is a plain dict of the query's work counts, whatever the
    engine: :class:`~repro.solver.engine.RegexSolver` reports the
    difference between two readings of its layers' counters (query
    entry and exit) plus their cumulative values under ``"lifetime"``;
    :class:`~repro.solver.smt.SmtSolver` sums its regex sub-queries'
    counts next to ``"case_splits"``.

    ``error`` is populated when the query was answered ``unknown``
    because of a mapped engine failure (resource exhaustion such as
    :class:`RecursionError` / :class:`MemoryError`, or a reaped batch
    worker): a dict with at least ``"type"`` and ``"message"`` keys.
    Callers — batch workers above all — therefore always see a typed
    result, never a propagating interpreter error.
    """

    __slots__ = ("status", "witness", "model", "stats", "reason", "error",
                 "explanation")

    def __init__(self, status, witness=None, model=None, stats=None,
                 reason=None, error=None, explanation=None):
        self.status = status
        self.witness = witness
        self.model = model
        self.stats = stats if stats is not None else {}
        self.reason = reason
        self.error = error
        #: :class:`repro.obs.explain.Explanation` (or ``SmtExplanation``)
        #: when the solver ran with provenance recording enabled
        self.explanation = explanation

    @property
    def is_sat(self):
        return self.status == SAT

    @property
    def is_unsat(self):
        return self.status == UNSAT

    @property
    def is_unknown(self):
        return self.status == UNKNOWN

    def to_dict(self):
        """JSON-serializable view of the result."""
        out = {
            "status": self.status,
            "witness": self.witness,
            "reason": self.reason,
            "stats": dict(self.stats),
        }
        if self.model is not None:
            out["model"] = dict(self.model)
        if self.error is not None:
            out["error"] = dict(self.error)
        if self.explanation is not None:
            # summary only: the full certificate is large and stays
            # behind Explanation.certificate()
            out["explanation"] = self.explanation.to_dict()
        return out

    def __repr__(self):
        extra = ""
        if self.witness is not None:
            extra = ", witness=%r" % (self.witness,)
        if self.reason is not None:
            extra += ", reason=%r" % (self.reason,)
        if self.error is not None:
            extra += ", error=%r" % (self.error,)
        return "SolverResult(%s%s)" % (self.status, extra)
