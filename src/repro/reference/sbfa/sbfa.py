"""Symbolic Boolean Finite Automata (paper, Section 7).

An SBFA is ``M = (A, Q, iota, F, q_bot, Delta)`` where ``iota`` is a
Boolean combination of states, ``Delta : Q -> TR_Q`` maps states to
transition regexes over states, and ``Delta(q_bot) = q_bot``.

The language is defined by lifting finality ``nu_F`` and ``Delta``
over ``B(Q)``::

    M(q) = { eps | nu_F(q) }  ∪  ⋃_a a · M(Delta(q)(a))

``from_regex`` builds ``SBFA(R)``: the states are ``delta+(R)`` — the
fixpoint of nontrivial terminals of symbolic derivatives — together
with ``R``, ``bottom`` and ``.*``.  Theorem 7.2: ``L(SBFA(R)) = L(R)``
(tested); Theorem 7.3: for clean, normalized ``R ∈ B(RE)``,
``|Q| <= #(R) + 3`` (tested and benchmarked).
"""

from repro.reference.derivative import derivative
from repro.reference.transition import (
    TRCompl, TRCond, TRInter, TRLeaf, TRUnion, nontrivial_terminals, pretty,
)
from repro.reference.sbfa import boolstate as B
from repro.regex.printer import to_pattern


class SBFA:
    """A symbolic Boolean finite automaton over an arbitrary state type."""

    def __init__(self, algebra, states, initial, finals, bottom, delta):
        self.algebra = algebra
        self.states = set(states)
        self.initial = initial          # element of B(Q)
        self.finals = set(finals)
        self.bottom = bottom
        self.delta = dict(delta)        # state -> TR over states

    @property
    def state_count(self):
        return len(self.states)

    # -- semantics -----------------------------------------------------------

    def nu(self, combo):
        """Lifted finality ``nu_F`` over a state combination."""
        return B.evaluate(combo, lambda q: q in self.finals)

    def tr_apply(self, tr, char):
        """Evaluate a transition regex at a character, into ``B(Q)``."""
        if isinstance(tr, TRLeaf):
            if tr.regex == self.bottom:
                return B.FALSE
            return B.st(tr.regex)
        if isinstance(tr, TRCond):
            branch = tr.then if self.algebra.member(char, tr.pred) else tr.other
            return self.tr_apply(branch, char)
        if isinstance(tr, TRUnion):
            return B.disj(*(self.tr_apply(c, char) for c in tr.children))
        if isinstance(tr, TRInter):
            return B.conj(*(self.tr_apply(c, char) for c in tr.children))
        if isinstance(tr, TRCompl):
            return B.neg(self.tr_apply(tr.child, char))
        raise TypeError("not a transition regex: %r" % (tr,))

    def step(self, combo, char):
        """One lifted transition: ``Delta(combo)(char)``."""
        return B.map_states(combo, lambda q: self.tr_apply(self.delta[q], char))

    def accepts(self, string):
        """Membership in ``L(M)`` by forward stepping over ``B(Q)``."""
        if any(not self.algebra.in_domain(c) for c in string):
            return False  # negated states must not admit foreign chars
        combo = self.initial
        for char in string:
            combo = self.step(combo, char)
        return self.nu(combo)

    def accepts_backward(self, string):
        """Membership by the classical backward (Boolean-vector)
        evaluation of Brzozowski–Leiss BFAs; must agree with
        :meth:`accepts` (tested)."""
        if any(not self.algebra.in_domain(c) for c in string):
            return False
        value = {q: q in self.finals for q in self.states}
        for char in reversed(string):
            value = {
                q: B.evaluate(
                    self.tr_apply(self.delta[q], char), lambda p: value[p]
                )
                for q in self.states
            }
        return B.evaluate(self.initial, lambda q: value[q])

    def guards(self):
        """All branch predicates appearing in any transition."""
        from repro.reference.transition import guards as tr_guards

        out = set()
        for tr in self.delta.values():
            out |= tr_guards(tr)
        return out


def delta_plus(builder, regex, limit=100000):
    """``delta+(R)``: all regexes reachable by one or more symbolic
    derivations, at terminal granularity (Theorem 7.1: finite)."""
    frontier = [regex]
    reached = set()
    while frontier:
        current = frontier.pop()
        targets = nontrivial_terminals(builder, derivative(builder, current))
        for target in targets:
            if target not in reached:
                if len(reached) >= limit:
                    raise RuntimeError("delta+ exceeded %d states" % limit)
                reached.add(target)
                frontier.append(target)
    return reached


def from_regex(builder, regex):
    """``SBFA(R)`` as defined in Section 7."""
    states = delta_plus(builder, regex)
    states |= {regex, builder.empty, builder.full}
    finals = {q for q in states if q.nullable}
    delta = {q: derivative(builder, q) for q in states}
    # Delta(q_bot) = q_bot, and .* self-loops (delta(.*) = eps . .*)
    delta[builder.empty] = TRLeaf(builder.empty)
    return SBFA(
        builder.algebra, states, B.st(regex), finals, builder.empty, delta,
    )


def sbfa_to_text(sbfa, algebra=None):
    """A Figure 5-style rendering of an SBFA's transition regexes."""
    algebra = algebra or sbfa.algebra
    lines = []
    ordered = sorted(sbfa.states, key=repr)
    for state in ordered:
        marker = "((F))" if state in sbfa.finals else "     "
        label = (
            to_pattern(state, algebra) if hasattr(state, "kind") else repr(state)
        )
        lines.append("%s %s" % (marker, label))
        lines.append("      delta = %s" % pretty(sbfa.delta[state], algebra))
    return "\n".join(lines)
