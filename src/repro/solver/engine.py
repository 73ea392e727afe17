"""The derivative-based decision procedure (paper, Section 5).

:class:`RegexSolver` decides emptiness/satisfiability of extended
regexes by lazily unfolding symbolic derivatives, maintaining the
persistent reachability graph ``G`` for dead-end detection, and
producing witness strings from the clean conditional trees' branch
guards.  Theorem 5.2: for a decidable character theory the procedure
answers ``unsat`` iff ``L(r)`` is empty (our character algebras are
decidable, so the only source of ``unknown`` is an explicit budget).
"""

import time
from collections import deque

from repro.derivatives.condtree import DerivativeEngine
from repro.errors import BudgetExceeded, ReproError, UnsupportedError
from repro.obs import Observability
from repro.obs.explain import ExplainRecorder
from repro.regex.transform import eliminate_lookarounds
from repro.solver.graph import RegexGraph
from repro.solver.lifecycle import EngineState
from repro.solver.result import (
    Budget, RESOURCE_ERRORS, SAT, SolverResult, UNKNOWN, UNSAT, error_info,
)


def _by_uid(regex):
    """Deterministic successor ordering for frozen transition rows."""
    return regex.uid


class RegexSolver:
    """Satisfiability, containment and equivalence of EREs.

    The solver owns a :class:`DerivativeEngine` and a persistent
    :class:`RegexGraph`; both accumulate knowledge across queries, so
    related queries get faster, exactly as dZ3's global graph does.

    ``obs`` is an :class:`~repro.obs.Observability` bundle; the default
    keeps metrics on (they are cheap) and tracing off.  Pass
    ``Observability.tracing()`` to record spans, or
    ``Observability.disabled()`` to strip even the counters.
    """

    def __init__(self, builder, strategy="dfs", obs=None, compaction=None,
                 explain=False, store=None):
        self.builder = builder
        self.algebra = builder.algebra
        self.obs = obs if obs is not None else Observability()
        self.algebra.bind_metrics(self.obs.metrics, self.obs.tracer)
        self.engine = DerivativeEngine(builder, obs=self.obs)
        self.graph = RegexGraph(is_final=lambda r: r.nullable, obs=self.obs)
        #: lifecycle facade over the solver's persistent caches; pass a
        #: CompactionPolicy as ``compaction`` to bound their growth
        self.state = EngineState(
            builder, engine=self.engine, graph=self.graph, obs=self.obs,
            policy=compaction,
        )
        if strategy not in ("dfs", "bfs"):
            raise ValueError("strategy must be 'dfs' or 'bfs'")
        # dZ3's unfolding is model-guided depth-first: it commits to one
        # branch of each case split and backtracks, so satisfiable deep
        # instances resolve without enumerating whole breadth levels.
        # BFS yields shortest witnesses; DFS is the default.
        self.strategy = strategy
        #: when True every query carries a checkable provenance record
        #: (witness path / unsat closure) on ``result.explanation``
        self.explain = explain
        self._tracer = self.obs.tracer
        #: the solver's own counts, plain ints on the hot path: states
        #: popped, queries, sat answers and warm-store lookups; the
        #: registry's ``solver`` and ``store`` scopes read them in place
        self._explored_n = 0
        self._queries_n = 0
        self._witnesses_n = 0
        self._store_hits_n = 0
        self._store_misses_n = 0
        self.obs.metrics.scope("solver").read_from(self._counters)
        self.obs.metrics.scope("store").read_from(self._store_counters)
        #: the cross-query compiled-fragment store (repro.solver.store)
        self.store = None
        #: node -> full transition rows instantiated from the store;
        #: consulted before the derivative engine, pinned against
        #: compaction through the EngineState root provider
        self._warm_rows = {}
        #: node -> (LazyFragment, state index) for fragment states not
        #: yet materialized; _edges promotes entries into _warm_rows as
        #: exploration reaches them, so warm work stays proportional to
        #: the explored prefix (an early sat never pays for the whole
        #: fragment)
        self._warm_sources = {}
        #: per-root-uid canonical key memo (None = uncacheable)
        self._canon_keys = {}
        #: per-query capture target, set by _consult_store on a miss
        self._capture = None
        if store is not None:
            self.attach_store(store)

    def _counters(self):
        """The ``solver`` scope's values, read at snapshot time."""
        return {
            "explored": self._explored_n,
            "queries": self._queries_n,
            "witnesses": self._witnesses_n,
        }

    def _store_counters(self):
        """The ``store`` scope's values, read at snapshot time."""
        return {"hits": self._store_hits_n, "misses": self._store_misses_n}

    # -- the warm store -------------------------------------------------------

    def attach_store(self, store):
        """Wire a :class:`~repro.solver.store.SolverStore` in: queries
        consult it before building derivatives, misses capture their
        rows into it, and the instantiated rows register as compaction
        roots (the store-pinning invariant — see EngineState.
        add_root_provider)."""
        self.store = store
        self.state.add_root_provider(self._store_roots)

    def _store_roots(self):
        """Every node the warm rows reference — keys, successors, and
        lazily-parsed-but-unmaterialized fragment states — so
        compaction keeps fragment state reachable and uid-canonical."""
        roots = []
        for node, rows in self._warm_rows.items():
            roots.append(node)
            for _guard, targets in rows:
                roots.extend(targets)
        roots.extend(self._warm_sources)
        return roots

    def _consult_store(self, regex):
        """Query-entry store consultation.

        On a hit the fragment's rows are instantiated into
        ``_warm_rows`` (once — later queries find them already live).
        On a miss, arms per-query row capture; :meth:`_edges` fills it
        and :meth:`_capture_fragment` stores it at query end.

        The lookup key is the printed pattern alone — cheaper than the
        full :func:`~repro.solver.store.canonical_pattern` roundtrip,
        and just as safe: a hit is only used after the fragment's root
        re-interns to this very node, and a miss's capture is
        roundtrip-checked state-by-state in ``build_fragment`` before
        anything is stored.
        """
        from repro.regex.printer import to_pattern

        key = self._canon_keys.get(regex.uid, False)
        if key is False:
            try:
                key = to_pattern(regex, self.algebra)
            except (ReproError, RecursionError):
                key = None
            self._canon_keys[regex.uid] = key
        if key is None:
            return
        fragment = self.store.lookup(repr(self.algebra), key)
        if fragment is not None:
            self._store_hits_n += 1
            if (regex not in self._warm_rows
                    and regex not in self._warm_sources):
                from repro.solver.store import LazyFragment

                lazy = LazyFragment(self.builder, fragment)
                # the fragment's root must re-intern to this very node;
                # anything else means a stale snapshot — solve cold
                if lazy.node(0) is regex:
                    self._warm_sources[regex] = (lazy, 0)
            return
        self._store_misses_n += 1
        self._capture = (key, {})

    def _capture_fragment(self, regex):
        """Store the rows a just-finished miss query captured.  Partial
        captures (budget ran out, witness found early) are fine: each
        row is an independent fact about the derivative relation."""
        from repro.solver.store import build_fragment

        key, rows = self._capture
        self._capture = None
        if not rows:
            return
        fragment = build_fragment(
            self.builder, regex, key, rows,
            max_states=self.store.max_states,
        )
        if fragment is not None and self.store.insert(fragment):
            # keep the captured rows warm in-process too: the next
            # compaction must already see them as pinned roots
            self._warm_rows.update(rows)

    # -- public queries -------------------------------------------------------

    def is_satisfiable(self, regex, budget=None):
        """Is ``L(regex)`` nonempty?  Returns a result with a witness
        string when satisfiable.

        A query boundary: afterwards, when a compaction policy is armed,
        the engine state compacts everything unreachable from ``regex``
        (and any pins).
        """
        events = self.obs.events
        if not events.enabled:
            try:
                return self._is_satisfiable(regex, budget)
            finally:
                self.state.end_query(keep=(regex,))
        # flight-recorder narration: one start/end event pair per query,
        # correlated by the hash-consed root's uid
        query = "uid:%d" % regex.uid
        events.emit("query.start", query=query)
        started = time.perf_counter()
        try:
            result = self._is_satisfiable(regex, budget)
        except BaseException as exc:
            events.emit(
                "query.end", query=query, status="raised",
                elapsed=time.perf_counter() - started,
                error=type(exc).__name__,
            )
            raise
        finally:
            self.state.end_query(keep=(regex,))
        events.emit(
            "query.end", query=query, status=result.status,
            elapsed=time.perf_counter() - started,
            explored=result.stats.get("explored", 0),
            fuel_used=result.stats.get("fuel_used", 0),
        )
        return result

    def _is_satisfiable(self, regex, budget):
        budget = budget or Budget()
        self._queries_n += 1
        mark = self._mark(budget)
        if regex.has_look:
            # derivative exploration is positional-blind: compile the
            # assertions away first (fullmatch languages are preserved,
            # so verdict and witness transfer to the original regex)
            target = eliminate_lookarounds(self.builder, regex)
            if target is None:
                return SolverResult(
                    UNKNOWN,
                    reason="lookaround elimination incomplete: assertion "
                           "in a position with no sound translation",
                    stats=self._stats(mark, budget),
                )
            regex = target
        if self.store is not None:
            self._consult_store(regex)
        recorder = ExplainRecorder(self) if self.explain else None
        try:
            return self._answer(regex, budget, mark, recorder)
        finally:
            # store any rows a miss query captured — even on a budget
            # or resource bailout, since partial captures are valid
            if self._capture is not None:
                self._capture_fragment(regex)

    def _answer(self, regex, budget, mark, recorder):
        # exceptions propagate *through* the span so the recorder writes
        # args["error"] (= "BudgetExceeded", "RecursionError", ...) on it
        try:
            with self._tracer.span("solver.explore", strategy=self.strategy):
                witness = self._explore(regex, budget, recorder)
        except BudgetExceeded as exc:
            return SolverResult(
                UNKNOWN, reason=str(exc), stats=self._stats(mark, budget),
                explanation=(recorder.unknown(regex, str(exc))
                             if recorder else None),
            )
        except UnsupportedError as exc:
            # defense in depth: any assertion that slipped past the
            # elimination gate answers a typed unknown, never a wrong
            # verdict
            return SolverResult(
                UNKNOWN, reason=str(exc), stats=self._stats(mark, budget),
                explanation=(recorder.unknown(regex, str(exc))
                             if recorder else None),
            )
        except RESOURCE_ERRORS as exc:
            # pathological inputs (deeply nested regexes above all) can
            # blow the interpreter stack mid-derivative; answer a typed
            # unknown so one bad query can never abort a batch
            try:
                stats = self._stats(mark, budget)
            except Exception:
                stats = None
            return SolverResult(
                UNKNOWN,
                reason="%s during derivative exploration"
                       % type(exc).__name__,
                error=error_info(exc),
                stats=stats,
                explanation=(
                    recorder.unknown(
                        regex, "%s during exploration" % type(exc).__name__
                    ) if recorder else None
                ),
            )
        if witness is None:
            # the unsat certificate: the explored closure (states the
            # bot rule skipped get their rows filled in from the
            # memoized derivative trees)
            return SolverResult(
                UNSAT, stats=self._stats(mark, budget),
                explanation=recorder.unsat(regex) if recorder else None,
            )
        self._witnesses_n += 1
        return SolverResult(
            SAT, witness=witness, stats=self._stats(mark, budget),
            explanation=(recorder.sat(regex, witness, recorder.sat_steps)
                         if recorder else None),
        )

    def is_empty(self, regex, budget=None):
        """Is ``L(regex)`` empty?  (The complement view of sat.)"""
        result = self.is_satisfiable(regex, budget)
        if result.is_sat:
            return SolverResult(
                UNSAT, witness=result.witness, stats=result.stats,
                explanation=result.explanation,
            )
        if result.is_unsat:
            return SolverResult(
                SAT, stats=result.stats, explanation=result.explanation
            )
        return result

    def contains(self, sub, sup, budget=None):
        """Language containment ``L(sub) ⊆ L(sup)``.

        Reduces to emptiness of ``sub & ~sup``; a witness (when the
        containment fails) is a string in the difference.
        """
        difference = self.builder.inter([sub, self.builder.compl(sup)])
        result = self.is_satisfiable(difference, budget)
        if result.is_sat:
            return SolverResult(
                UNSAT, witness=result.witness, stats=result.stats,
                reason="containment counterexample",
                explanation=result.explanation,
            )
        if result.is_unsat:
            return SolverResult(
                SAT, stats=result.stats, explanation=result.explanation
            )
        return result

    def equivalent(self, left, right, budget=None):
        """Language equivalence, via the symmetric difference
        ``(left & ~right) | (right & ~left)`` (Section 5's reduction of
        inequivalence constraints to membership)."""
        builder = self.builder
        sym_diff = builder.union([
            builder.inter([left, builder.compl(right)]),
            builder.inter([right, builder.compl(left)]),
        ])
        result = self.is_satisfiable(sym_diff, budget)
        if result.is_sat:
            return SolverResult(
                UNSAT, witness=result.witness, stats=result.stats,
                reason="distinguishing string",
                explanation=result.explanation,
            )
        if result.is_unsat:
            return SolverResult(
                SAT, stats=result.stats, explanation=result.explanation
            )
        return result

    def membership(self, string, regex):
        """Concrete membership via iterated derivatives (no search).

        Assertion-bearing regexes are decided by the positional
        reference semantics — derivatives cannot carry the context.
        """
        if regex.has_look:
            from repro.regex.semantics import Matcher

            return Matcher(self.builder.algebra).matches(regex, string)
        return self.engine.matches(regex, string)

    # -- exploration -----------------------------------------------------------

    def _explore(self, root, budget, recorder=None):
        """Lazy unfolding: BFS over derivative successors.

        Returns a witness string if a nullable regex is reachable, or
        None once the reachable space is exhausted (root is dead).
        When ``recorder`` is set, every expanded state's full transition
        rows are recorded and a sat verdict leaves its path steps on
        ``recorder.sat_steps``.
        """
        graph = self.graph
        graph.add_vertex(root)
        if root.nullable:
            if recorder is not None:
                recorder.sat_steps = []
            return ""
        # the bot rule: a regex already proved dead is unsat immediately
        if graph.is_dead(root):
            return None
        parent = {root: None}
        queue = deque([root])
        while queue:
            budget.tick()
            vertex = queue.popleft() if self.strategy == "bfs" else queue.pop()
            self._explored_n += 1
            if graph.is_dead(vertex):
                continue
            edges = self._edges(vertex, recorder)
            all_targets = set()
            for _, successor_set in edges:
                all_targets.update(successor_set)
            graph.update(vertex, all_targets)
            for guard, successor_set in edges:
                char = self.algebra.pick(guard)
                for target in successor_set:
                    if target not in parent:
                        parent[target] = (vertex, char, guard)
                        if target.nullable:
                            witness, steps = self._reconstruct(parent, target)
                            if recorder is not None:
                                recorder.sat_steps = steps
                            return witness
                        queue.append(target)
        return None

    def _edges(self, vertex, recorder=None):
        """Group the derivative tree of ``vertex`` into transitions.

        Returns ``(guard, successors)`` pairs, one per non-bottom leaf
        of the clean conditional tree; the guards are satisfiable and
        partition the character space.  ``bottom`` never appears in
        leaf sets; ``.*`` does (it is a final, alive vertex — dropping
        it, as ``Q()`` does for state counting, would break soundness
        of dead-end detection).

        The full rows — bottom leaves included, so the guards cover the
        whole domain — go to the recorder; the exploration loop only
        sees the live ones.

        With a warm store attached, rows instantiated from a fragment
        are used as-is (skipping the derivative build entirely);
        freshly computed rows get their successor sets frozen into
        uid-sorted tuples, so exploration order — and therefore the
        witness — is identical between the capturing cold run and any
        warm replay of the fragment.
        """
        rows = self._warm_rows.get(vertex) if self._warm_rows else None
        if rows is None and self._warm_sources:
            rows = self._materialize(vertex)
        if rows is None:
            rows = tuple(
                (guard, tuple(sorted(targets, key=_by_uid)))
                for guard, targets in self.engine.transitions(vertex)
            )
        if self._capture is not None:
            self._capture[1][vertex] = rows
        if recorder is not None:
            recorder.record_rows(vertex, rows)
        return [(guard, targets) for guard, targets in rows if targets]

    def _materialize(self, vertex):
        """Promote a lazily-held fragment state into live warm rows.

        Materializing parses the state's successor texts and registers
        *them* as lazy sources, so the fragment unrolls exactly as far
        as exploration walks it.  Any decode failure degrades the
        state to a cold derivative build."""
        source = self._warm_sources.pop(vertex, None)
        if source is None:
            return None
        lazy, idx = source
        rows = lazy.rows_for(idx)
        if rows is None:
            return None
        self._warm_rows[vertex] = rows
        for _ranges, targets in lazy.row_targets(idx):
            for target_idx in targets:
                node = lazy.node(target_idx)
                if (node is not None and node not in self._warm_rows
                        and node not in self._warm_sources):
                    self._warm_sources[node] = (lazy, target_idx)
        return rows

    def _reconstruct(self, parent, target):
        """Witness string plus the (state, guard, char, successor)
        steps from the root, read off the parent chain."""
        steps = []
        node = target
        while parent[node] is not None:
            source, char, guard = parent[node]
            steps.append((source, guard, char, node))
            node = source
        steps.reverse()
        return "".join(step[2] for step in steps), steps

    def _reading(self):
        """One cumulative reading of the counts the layers keep: the
        graph's sizes, the derivative engine's counters, the algebra's
        operations, the builder's node table and the solver's own ints,
        keyed as the per-query stats report them."""
        reading = self.graph.stats()
        reading.update(self.engine._counters())
        reading.update(
            explored=self._explored_n,
            algebra_ops=self.algebra.op_count,
            interned_regexes=self.builder.interned_count,
            store_hits=self._store_hits_n,
            store_misses=self._store_misses_n,
        )
        return reading

    def _mark(self, budget):
        """Query entry: a reading, the fuel used and the clock, so the
        query's stats can report per-query differences (the memo tables
        and graph persist across queries on purpose)."""
        return self._reading(), budget.fuel_used, time.perf_counter()

    def _stats(self, mark, budget):
        """The query's stats: exit reading minus entry reading, the fuel
        and wall time spent, and under ``lifetime`` the exit reading
        with the query count and the budget's total fuel."""
        then, fuel_then, started = mark
        lifetime = self._reading()
        stats = {key: value - then[key] for key, value in lifetime.items()}
        stats["fuel_used"] = budget.fuel_used - fuel_then
        stats["elapsed"] = time.perf_counter() - started
        lifetime["queries"] = self._queries_n
        lifetime["fuel_used"] = budget.fuel_used
        stats["lifetime"] = lifetime
        return stats
