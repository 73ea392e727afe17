"""Span recording for the traced run.

Spans go around the calls into each layer: the query, parsing,
lookaround elimination, per-state derivative and graph steps, and store
calls.  They never go around ``meld`` or single algebra operations,
whose spans would cost more than the work they time.

A layer's self time is its spans' durations minus the time their child
spans cover.  Whatever no layer span covers inside a query is
``trace.other_ms``, so the layer self times plus ``trace.other_ms`` sum
to ``trace.wall_ms`` by construction.  Spans stay in memory as running
totals per thread; nothing is written out.
"""

import threading
import time
from contextlib import contextmanager

import repro.solver.engine as engine_module
from repro.derivatives.condtree import DerivativeEngine
from repro.regex.semantics import Matcher
from repro.solver.engine import RegexSolver
from repro.solver.graph import RegexGraph
from repro.solver.smt import SmtSolver
from repro.solver.store import LazyFragment, SolverStore

clock = time.perf_counter

#: Per-query self-time metrics of the in-process layers.
LAYER_TIMES = (
    "smtlib.parse_ms",
    "regex.parse_ms",
    "regex.eliminate_ms",
    "regex.replay_ms",
    "derivatives.transitions_ms",
    "solver.query_ms",
    "solver.explore_ms",
    "solver.graph_update_ms",
    "solver.store.load_ms",
    "solver.store.lookup_ms",
    "solver.store.instantiate_ms",
    "solver.store.capture_ms",
)

#: The solver-side spans: (owner, attribute, layer metric).  ``owner``
#: is a class (every instance is traced) or a module whose global the
#: solver looks up at call time.
SOLVER_SPANS = (
    (SmtSolver, "solve", "solver.query_ms"),
    (RegexSolver, "is_satisfiable", "solver.query_ms"),
    (RegexSolver, "_explore", "solver.explore_ms"),
    (RegexGraph, "update", "solver.graph_update_ms"),
    (DerivativeEngine, "transitions", "derivatives.transitions_ms"),
    (engine_module, "eliminate_lookarounds", "regex.eliminate_ms"),
    (Matcher, "matches", "regex.replay_ms"),
    (SolverStore, "from_dict", "solver.store.load_ms"),
    # lookup includes printing the key; instantiation nests inside it.
    # ``node`` is called for every successor reference, so the span sits
    # on ``_decode``, which runs once per state
    (RegexSolver, "_consult_store", "solver.store.lookup_ms"),
    (LazyFragment, "_decode", "solver.store.instantiate_ms"),
    (LazyFragment, "rows_for", "solver.store.instantiate_ms"),
    # the write path of a miss: build_fragment plus insert
    (RegexSolver, "_capture_fragment", "solver.store.capture_ms"),
)


class SpanRecorder:
    """Self-time totals per layer, kept per thread and merged on read.

    Layer spans record only inside a :meth:`query` on the same thread,
    so the benchmark's own oracle checks, which run between queries,
    never count.  :meth:`timed` is for calls made on other threads (the
    daemon's reader threads): it sums their durations without a parent.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._flat = {}
        self._patches = []

    def _totals(self):
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = dict.fromkeys(LAYER_TIMES, 0.0)
            totals.update({"other": 0.0, "wall": 0.0, "queries": 0})
            self._local.totals = totals
            self._local.stack = []
            with self._lock:
                self._threads.append(totals)
        return totals

    @contextmanager
    def query(self):
        """The root span of one query."""
        totals = self._totals()
        stack = self._local.stack
        frame = [0.0]
        stack.append(frame)
        start = clock()
        try:
            yield
        finally:
            duration = clock() - start
            stack.pop()
            totals["other"] += duration - frame[0]
            totals["wall"] += duration
            totals["queries"] += 1

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around every call made
        inside a query."""
        local = self._local

        def span(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if not stack:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                local.totals[name] += duration - frame[0]

        return span

    def timed(self, name, fn):
        """``fn`` with every call's duration summed under ``name``."""
        lock = self._lock
        flat = self._flat
        flat.setdefault(name, 0.0)

        def timed_call(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                with lock:
                    flat[name] += duration

        return timed_call

    def patch(self, owner, attribute, name, flat=False):
        """Replace ``owner.attribute`` with its wrapped form until
        :meth:`unpatch_all`."""
        own = vars(owner)
        had_own = attribute in own
        original = own[attribute] if had_own else getattr(owner, attribute)
        wrapper = (self.timed if flat else self.wrap)(name, original)
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original, had_own))

    def patch_solver(self):
        for owner, attribute, name in SOLVER_SPANS:
            self.patch(owner, attribute, name)

    def unpatch_all(self):
        while self._patches:
            owner, attribute, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def flat_seconds(self, name):
        with self._lock:
            return self._flat.get(name, 0.0)

    def per_query_ms(self):
        """``{metric: ms per query}`` for every layer, plus
        ``trace.other_ms``, ``trace.wall_ms`` and the query count."""
        with self._lock:
            threads = list(self._threads)
        merged = dict.fromkeys(LAYER_TIMES, 0.0)
        merged.update({"other": 0.0, "wall": 0.0, "queries": 0})
        for totals in threads:
            for key, value in totals.items():
                merged[key] += value
        queries = merged["queries"]
        scale = 1000.0 / queries if queries else 0.0
        out = {name: merged[name] * scale for name in LAYER_TIMES}
        out["trace.other_ms"] = merged["other"] * scale
        out["trace.wall_ms"] = merged["wall"] * scale
        return out, queries
