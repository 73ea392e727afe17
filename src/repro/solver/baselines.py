"""Baseline satisfiability engines, one per algorithm family the paper
compares against.

All expose ``is_satisfiable(regex, budget) -> SolverResult`` so the
benchmark harness (and the mini-SMT front end) can swap them freely:

* :class:`EagerAutomataSolver` — eager automata Boolean operations
  ("approach 1"; legacy Z3's symbolic-automata solver).  The
  ``determinize_all`` flavour models DFA-based pipelines, which pay
  the subset construction even without complement.
* :class:`AntimirovSolver` — lazy partial derivatives with the
  product rule for intersection, no complement (CVC4-style, [43]).
* :class:`MintermSolver` — classical Brzozowski derivatives after
  *global* mintermization of the constraint's predicates (the
  finitization approach of Section 8.3): complete, but exponential in
  the number of distinct predicates and proportional to the number of
  minterms per step.
"""

from collections import deque

from repro.alphabet.minterms import minterms
from repro.automata.eager import eager_compile
from repro.automata.ops import determinize
from repro.automata.sfa import StateBudget
from repro.derivatives.antimirov import linear_form
from repro.derivatives.brzozowski import brzozowski, sorted_predicates
from repro.errors import BudgetExceeded, UnsupportedError
from repro.obs import Observability
from repro.solver.lifecycle import EngineState
from repro.solver.result import Budget, SAT, SolverResult, UNKNOWN, UNSAT


class _BaselineObsMixin:
    """Shared telemetry wiring: every baseline reports its explored
    states under a scope named after the engine, so dZ3 and the
    baselines are comparable on the same dashboards.

    Also shared: the lifecycle facade.  The baselines keep no memo
    tables of their own, but their queries intern transient regexes
    into the shared builder; the engine state bounds that growth the
    same way as for the derivative solver.
    """

    def _init_obs(self, obs, compaction=None):
        self.obs = obs if obs is not None else Observability()
        scope = self.obs.metrics.scope("baseline").scope(self.name)
        self._c_queries = scope.counter("queries")
        self._c_explored = scope.counter("explored")
        self._tracer = self.obs.tracer
        self.state = EngineState(self.builder, obs=self.obs, policy=compaction)

    def is_satisfiable(self, regex, budget=None):
        """Satisfiability of one ERE; a query boundary for the engine
        state (compaction policy applied).

        Constructs a baseline cannot soundly handle (zero-width
        assertions above all) answer a typed unknown here, uniformly
        across the lineup — an incomplete engine is not a wrong one.
        """
        try:
            return self._is_satisfiable(regex, budget)
        except UnsupportedError as exc:
            return SolverResult(UNKNOWN, reason=str(exc))
        finally:
            self.state.end_query(keep=(regex,))


class EagerAutomataSolver(_BaselineObsMixin):
    """Approach 1: compile the whole ERE to an automaton, then ask."""

    name = "eager-sfa"

    def __init__(self, builder, max_states=100000, determinize_all=False,
                 obs=None, compaction=None):
        self.builder = builder
        self.algebra = builder.algebra
        self.max_states = max_states
        self.determinize_all = determinize_all
        if determinize_all:
            self.name = "eager-dfa"
        self._init_obs(obs, compaction)

    def _is_satisfiable(self, regex, budget=None):
        states = StateBudget(self.max_states)
        self._c_queries.inc()
        try:
            with self._tracer.span("solver.explore", engine=self.name):
                sfa = eager_compile(self.algebra, regex, states)
                if self.determinize_all and not sfa.deterministic:
                    sfa = determinize(sfa, states)
                empty, witness = sfa.is_empty()
        except BudgetExceeded as exc:
            self._c_explored.inc(states.created)
            return SolverResult(
                UNKNOWN, reason=str(exc), stats={"states_created": states.created}
            )
        self._c_explored.inc(states.created)
        stats = {"states_created": states.created}
        if empty:
            return SolverResult(UNSAT, stats=stats)
        return SolverResult(SAT, witness=witness, stats=stats)


class AntimirovSolver(_BaselineObsMixin):
    """CVC4-style partial-derivative solver.

    Positive memberships and intersections go through Antimirov linear
    forms with the product rule.  *Top-level* complements (the shape
    ``A & ~B1 & ... & ~Bk`` the SMT reduction produces for negated
    membership atoms) are handled the way automata-based string solvers
    do: each ``~Bi`` is tracked as a lazily-determinized subset of
    ``Bi``'s partial-derivative states, rejected when the subset
    contains a nullable state.  Complement *nested* under concatenation
    or iteration has no partial-derivative formulation [17] and yields
    *unknown* — the gap the paper's handwritten suite exposes.
    """

    name = "antimirov-pd"

    def __init__(self, builder, obs=None, compaction=None):
        self.builder = builder
        self.algebra = builder.algebra
        self._init_obs(obs, compaction)

    def _is_satisfiable(self, regex, budget=None):
        budget = budget or Budget()
        self._c_queries.inc()
        try:
            positive, negatives = self._split(regex)
            with self._tracer.span("solver.explore", engine=self.name):
                return self._search(positive, negatives, budget)
        except UnsupportedError as exc:
            return SolverResult(UNKNOWN, reason=str(exc))
        except BudgetExceeded as exc:
            return SolverResult(UNKNOWN, reason=str(exc))

    def _split(self, regex):
        """``A & ~B1 & ... & ~Bk`` with complement-free pieces."""
        from repro.regex.ast import COMPL, INTER

        if regex.kind == INTER:
            parts = regex.children
        else:
            parts = (regex,)
        positives = []
        negatives = []
        for part in parts:
            if part.kind == COMPL:
                negatives.append(self._require_compl_free(part.children[0]))
            else:
                positives.append(self._require_compl_free(part))
        positive = (
            self.builder.inter(positives) if positives else self.builder.full
        )
        return positive, negatives

    def _require_compl_free(self, regex):
        from repro.regex.ast import COMPL, fold_postorder

        if fold_postorder(
            regex, lambda node, kids: node.kind == COMPL or any(kids)
        ):
            raise UnsupportedError(
                "partial derivatives cannot express nested complement"
            )
        return regex

    def _search(self, positive, negatives, budget):
        builder = self.builder
        algebra = self.algebra

        def is_final(state):
            pos, subsets = state
            if not pos.nullable:
                return False
            return all(not any(q.nullable for q in s) for s in subsets)

        start = (positive, tuple(frozenset({n}) for n in negatives))
        if is_final(start):
            return SolverResult(SAT, witness="")
        parent = {start: None}
        stack = [start]
        explored = 0
        while stack:
            budget.tick()
            state = stack.pop()
            explored += 1
            self._c_explored.inc()
            pos, subsets = state
            pos_pairs = linear_form(builder, pos)
            subset_pairs = [
                [(phi, t) for q in subset for phi, t in linear_form(builder, q)]
                for subset in subsets
            ]
            guards = [phi for phi, _ in pos_pairs]
            for pairs in subset_pairs:
                guards.extend(phi for phi, _ in pairs)
            for part in minterms(algebra, guards):
                budget.tick()
                char = algebra.pick(part)
                next_subsets = tuple(
                    frozenset(
                        t for phi, t in pairs if algebra.member(char, phi)
                    )
                    for pairs in subset_pairs
                )
                for phi, target in pos_pairs:
                    if not algebra.member(char, phi):
                        continue
                    nxt = (target, next_subsets)
                    if nxt not in parent:
                        parent[nxt] = (state, char)
                        if is_final(nxt):
                            return SolverResult(
                                SAT,
                                witness=_reconstruct(parent, nxt),
                                stats={"states": explored},
                            )
                        stack.append(nxt)
        return SolverResult(UNSAT, stats={"states": explored})


class MintermSolver(_BaselineObsMixin):
    """Global mintermization + classical Brzozowski derivatives.

    The alphabet is finitized once per query: every derivative step
    iterates over *all* minterms of the constraint's predicate set,
    so a constraint with ``n`` distinct predicates costs up to
    ``2**n`` work per state — the Section 8.3 bottleneck.
    """

    name = "brzozowski-minterm"

    def __init__(self, builder, max_minterms=4096, obs=None, compaction=None):
        self.builder = builder
        self.algebra = builder.algebra
        self.max_minterms = max_minterms
        self._init_obs(obs, compaction)

    def _is_satisfiable(self, regex, budget=None):
        budget = budget or Budget()
        builder = self.builder
        algebra = self.algebra
        preds = sorted_predicates(regex)
        self._c_queries.inc()
        try:
            parts = minterms(algebra, preds)
            if len(parts) > self.max_minterms:
                return SolverResult(
                    UNKNOWN,
                    reason="minterm explosion (%d minterms)" % len(parts),
                )
            letters = [algebra.pick(part) for part in parts]
            if regex.nullable:
                return SolverResult(SAT, witness="")
            parent = {regex: None}
            queue = deque([regex])
            explored = 0
            while queue:
                budget.tick()
                state = queue.popleft()
                explored += 1
                self._c_explored.inc()
                for char in letters:
                    budget.tick()
                    target = brzozowski(builder, state, char)
                    if target is builder.empty:
                        continue
                    if target not in parent:
                        parent[target] = (state, char)
                        if target.nullable:
                            return SolverResult(
                                SAT,
                                witness=_reconstruct(parent, target),
                                stats={"states": explored, "minterms": len(parts)},
                            )
                        queue.append(target)
            return SolverResult(
                UNSAT, stats={"states": explored, "minterms": len(parts)}
            )
        except BudgetExceeded as exc:
            return SolverResult(UNKNOWN, reason=str(exc))


def _reconstruct(parent, state):
    chars = []
    node = state
    while parent[node] is not None:
        node, char = parent[node]
        chars.append(char)
    return "".join(reversed(chars))
