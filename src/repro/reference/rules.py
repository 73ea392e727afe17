"""A literal implementation of the membership propagation rules
(paper, Figure 3).

:class:`PropagationEngine` treats the rules as an explicit rewrite
system over goals, firing **der**, **ite**, **or**, **ere**, **bot**
and **upd** one at a time and recording a trace.  It exists to make
the decision procedure of Section 5 inspectable (examples print the
traces) and to cross-check the optimized :class:`~repro.solver.engine.
RegexSolver` — both must agree on every instance (tested).

Goals:

* ``in(s, r)`` — the symbolic suffix ``s`` (of which ``prefix`` has
  already been fixed) must match the ERE ``r``;
* ``in_tr(s, t)`` — ditto for a transition regex ``t``, only reachable
  under the side constraint ``|s| > 0``.

The disjunctions produced by **der**/**ite**/**or** become branches on
a worklist; the prefix plays the role of the character-theory model
that the host solver would accumulate.
"""

from collections import deque

from repro.errors import BudgetExceeded
from repro.obs.explain import Explanation
from repro.solver.result import Budget, SAT, SolverResult, UNKNOWN, UNSAT


class RuleTrace:
    """Bounded log of rule firings.

    When ``metrics`` (a registry scope) is supplied, every firing also
    bumps a per-rule counter there, so rule activity shows up on the
    same dashboards as the optimized engine's counters.
    """

    def __init__(self, limit=10000, metrics=None):
        self.entries = []
        self.counts = {}
        self.limit = limit
        self._metrics = metrics

    def fire(self, rule, detail=""):
        self.counts[rule] = self.counts.get(rule, 0) + 1
        if self._metrics is not None:
            self._metrics.counter(rule).inc()
        if len(self.entries) < self.limit:
            self.entries.append((rule, detail))

    def __repr__(self):
        return "RuleTrace(%s)" % ", ".join(
            "%s=%d" % kv for kv in sorted(self.counts.items())
        )


class PropagationEngine:
    """Figure 3's rules, fired explicitly over a goal worklist."""

    def __init__(self, solver):
        # shares the derivative engine and persistent graph G with a
        # RegexSolver so that the `bot` rule sees prior dead regexes
        self.solver = solver
        self.builder = solver.builder
        self.algebra = solver.algebra

    def solve(self, regex, budget=None, trace=None, explain=False):
        """Run the propagation rules to decide ``exists s. in(s, r)``.

        With ``explain=True`` the result carries the same checkable
        :class:`~repro.obs.explain.Explanation` the optimized engine
        produces: the rule engine tracks prefixes rather than parent
        chains, so a sat witness path is rebuilt after the fact
        (:func:`explain_witness`) and an unsat closure is collected
        from the memoized derivative trees.
        """
        budget = budget or Budget()
        obs = self.solver.obs
        if trace is None:
            trace = RuleTrace(metrics=obs.metrics.scope("rules"))
        graph = self.solver.graph
        engine = self.solver.engine
        # each work item: (regex goal, prefix string fixed so far)
        work = deque([(regex, "")])
        expanded = set()
        try:
            while work:
                budget.tick()
                goal, prefix = work.popleft()
                graph.add_vertex(goal)
                if graph.is_dead(goal):
                    # bot: in(s, r) with r dead rewrites to false
                    trace.fire("bot", repr(goal))
                    continue
                # der: |s| = 0 /\ nullable(r) branch
                trace.fire("der", repr(goal))
                if goal.nullable:
                    return SolverResult(
                        SAT, witness=prefix, stats={"trace": trace.counts},
                        explanation=(
                            explain_witness(self.solver, regex, prefix)
                            if explain else None
                        ),
                    )
                if goal in expanded:
                    continue
                expanded.add(goal)
                # der: |s| > 0 /\ in_tr(s, delta_dnf(r)), plus upd
                tree = engine.derivative(goal)
                branches = self._ite(tree, self.algebra.top, trace)
                targets = set()
                for guard, leaf_regexes in branches:
                    targets |= leaf_regexes
                graph.update(goal, targets)
                trace.fire("upd", "%d targets" % len(targets))
                for guard, leaf_regexes in branches:
                    char = self.algebra.pick(guard)
                    # or: a union leaf splits into its alternatives
                    if len(leaf_regexes) > 1:
                        trace.fire("or", "%d alternatives" % len(leaf_regexes))
                    for alternative in leaf_regexes:
                        # ere: in_tr(s, r') becomes in(s1.., r')
                        trace.fire("ere", repr(alternative))
                        work.append((alternative, prefix + char))
        except BudgetExceeded as exc:
            return SolverResult(
                UNKNOWN, reason=str(exc), stats={"trace": trace.counts},
                explanation=(
                    Explanation.unknown(self.solver, regex, str(exc))
                    if explain else None
                ),
            )
        return SolverResult(
            UNSAT, stats={"trace": trace.counts},
            explanation=(
                Explanation.unsat(self.solver, regex, {}) if explain else None
            ),
        )

    def _ite(self, tree, path, trace):
        """Fire the **ite** rule down a clean conditional tree, yielding
        ``(guard, leaf regex set)`` branches with satisfiable guards."""
        if tree.is_leaf:
            if tree.regexes:
                return [(path, set(tree.regexes))]
            return []
        trace.fire("ite", repr(tree.pred))
        out = self._ite(tree.then, self.algebra.conj(path, tree.pred), trace)
        out += self._ite(
            tree.other, self.algebra.conj(path, self.algebra.neg(tree.pred)), trace
        )
        return out


def explain_witness(solver, root, witness):
    """Rebuild a checkable witness path for a known witness string.

    The rule engine finds witnesses without a parent chain, so this
    walks the conditional trees from ``root``, choosing at each position
    the row whose guard admits the witness character and, among its
    alternatives, a successor that still accepts the remaining suffix
    (decided by the reference semantics, so the chosen path is exactly
    what the checker will re-verify).  Returns None if no such path
    exists — which, for a genuine witness, cannot happen.
    """
    from repro.regex.semantics import Matcher

    engine = solver.engine
    algebra = solver.algebra
    semantics = Matcher(algebra)
    state = root
    steps = []
    for i, char in enumerate(witness):
        suffix = witness[i + 1:]
        chosen = None
        for guard, targets in engine.transitions(state):
            if not algebra.member(char, guard):
                continue
            for target in targets:
                if semantics.matches(target, suffix):
                    chosen = (state, guard, char, target)
                    break
            break  # the guards partition the domain: only one row fits
        if chosen is None:
            return None
        steps.append(chosen)
        state = chosen[3]
    if not state.nullable:
        return None
    return Explanation.sat(solver, root, witness, steps)
