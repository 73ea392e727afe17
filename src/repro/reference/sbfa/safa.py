"""Symbolic Alternating Finite Automata and the conversions of
Section 8.3 (Propositions 8.2 and 8.3).

A SAFA [D'Antoni, Kincaid & Wang] has transitions ``(q, psi, target)``
with ``target`` in the *positive* Boolean closure ``B+(Q)`` — no
complement.  Converting a SAFA to an SBFA is a direct embedding;
converting an SBFA to a SAFA requires (a) eliminating complement by
doubling the state space with negated copies, and (b) *local
mintermization* of each state's guards — the worst-case-exponential
step the paper identifies as the cost of the SAFA normal form.
"""

from repro.alphabet.minterms import minterms
from repro.reference.transition import (
    TRCompl, TRCond, TRInter, TRLeaf, TRUnion, guards as tr_guards,
)
from repro.reference.sbfa import boolstate as B
from repro.reference.sbfa.sbfa import SBFA


class SAFA:
    """A symbolic alternating finite automaton."""

    def __init__(self, algebra, states, initial, finals, transitions):
        self.algebra = algebra
        self.states = set(states)
        self.initial = initial          # element of B+(Q)
        self.finals = set(finals)
        self.transitions = list(transitions)  # (state, pred, B+(Q))
        if not B.is_positive(initial):
            raise ValueError("SAFA initial combination must be positive")
        for _, _, target in self.transitions:
            if not B.is_positive(target):
                raise ValueError("SAFA transition targets must be positive")

    @property
    def state_count(self):
        return len(self.states)

    def accepts(self, string):
        """Alternating acceptance by backward Boolean evaluation."""
        if any(not self.algebra.in_domain(c) for c in string):
            return False  # negated targets must not admit foreign chars
        value = {q: q in self.finals for q in self.states}
        for char in reversed(string):
            moves = {}
            for state, pred, target in self.transitions:
                if self.algebra.member(char, pred):
                    moves.setdefault(state, []).append(target)
            value = {
                q: any(
                    B.evaluate(t, lambda p: value[p]) for t in moves.get(q, ())
                )
                for q in self.states
            }
        return B.evaluate(self.initial, lambda q: value[q])


def to_sbfa(safa, bottom="__bottom__"):
    """Proposition 8.2: the equivalent SBFA of a SAFA.

    ``Delta(q) = OR { if(psi, p, q_bot) | (q, psi, p) in transitions }``.
    """
    delta = {}
    for state in safa.states:
        branches = [
            TRCond(pred, _combo_to_tr(target), TRLeaf(bottom))
            for source, pred, target in safa.transitions
            if source == state
        ]
        if not branches:
            delta[state] = TRLeaf(bottom)
        elif len(branches) == 1:
            delta[state] = branches[0]
        else:
            delta[state] = TRUnion(tuple(branches))
    delta[bottom] = TRLeaf(bottom)
    return SBFA(
        safa.algebra, safa.states | {bottom}, safa.initial, safa.finals,
        bottom, delta,
    )


def _combo_to_tr(combo):
    tag = combo[0]
    if tag == "st":
        return TRLeaf(combo[1])
    if tag == "and":
        return TRInter(tuple(_combo_to_tr(c) for c in combo[1:]))
    if tag == "or":
        return TRUnion(tuple(_combo_to_tr(c) for c in combo[1:]))
    raise ValueError("not a positive combination: %r" % (combo,))


def from_sbfa(sbfa):
    """Proposition 8.3: the equivalent SAFA of an SBFA.

    Complement is eliminated by adding a negated copy ``neg(q)`` of
    every state with ``Delta(neg q) = NNF(~Delta(q))``; then each
    state's transition regex is expanded over the minterms of its
    guards.  Both steps can blow up — that is the proposition's point.
    """
    algebra = sbfa.algebra

    def neg_state(q):
        return q[1] if isinstance(q, tuple) and q and q[0] == "~" else ("~", q)

    # NNF over state leaves: negation becomes the negated state
    def nnf(tr, positive):
        if isinstance(tr, TRLeaf):
            return TRLeaf(tr.regex if positive else neg_state(tr.regex))
        if isinstance(tr, TRCond):
            return TRCond(tr.pred, nnf(tr.then, positive), nnf(tr.other, positive))
        if isinstance(tr, TRUnion):
            children = tuple(nnf(c, positive) for c in tr.children)
            return TRUnion(children) if positive else TRInter(children)
        if isinstance(tr, TRInter):
            children = tuple(nnf(c, positive) for c in tr.children)
            return TRInter(children) if positive else TRUnion(children)
        if isinstance(tr, TRCompl):
            return nnf(tr.child, not positive)
        raise TypeError("not a transition regex: %r" % (tr,))

    states = set(sbfa.states) | {neg_state(q) for q in sbfa.states}
    delta = {}
    for q in sbfa.states:
        delta[q] = nnf(sbfa.delta[q], True)
        delta[neg_state(q)] = nnf(sbfa.delta[q], False)
    finals = set(sbfa.finals) | {
        neg_state(q) for q in sbfa.states if q not in sbfa.finals
    }

    # local mintermization of each state's guards
    def eval_tr(tr, char):
        if isinstance(tr, TRLeaf):
            return B.st(tr.regex)
        if isinstance(tr, TRCond):
            branch = tr.then if algebra.member(char, tr.pred) else tr.other
            return eval_tr(branch, char)
        if isinstance(tr, TRUnion):
            return B.disj(*(eval_tr(c, char) for c in tr.children))
        if isinstance(tr, TRInter):
            return B.conj(*(eval_tr(c, char) for c in tr.children))
        raise TypeError("unexpected node after NNF: %r" % (tr,))

    transitions = []
    for q in states:
        local_guards = tr_guards(delta[q])
        for part in minterms(algebra, sorted(local_guards, key=repr)):
            target = eval_tr(delta[q], algebra.pick(part))
            if target == B.FALSE or (
                target[0] == "st" and target[1] == sbfa.bottom
            ):
                continue
            # the SBFA bottom inside conjunctions kills the branch
            target = _drop_bottom(target, sbfa.bottom)
            if target == B.FALSE:
                continue
            transitions.append((q, part, target))
    initial = B.map_states(sbfa.initial, B.st)
    initial = _positivize(initial, neg_state)
    used = states
    return SAFA(algebra, used, initial, finals, transitions)


def _drop_bottom(combo, bottom):
    tag = combo[0]
    if tag == "st":
        return B.FALSE if combo[1] == bottom else combo
    if tag == "and":
        return B.conj(*(_drop_bottom(c, bottom) for c in combo[1:]))
    if tag == "or":
        return B.disj(*(_drop_bottom(c, bottom) for c in combo[1:]))
    if tag == "not":
        return B.neg(_drop_bottom(combo[1], bottom))
    return combo


def _positivize(combo, neg_state):
    """Push negations in a state combination onto states."""

    def go(node, positive):
        tag = node[0]
        if tag == "st":
            return node if positive else B.st(neg_state(node[1]))
        if tag == "not":
            return go(node[1], not positive)
        if tag == "and":
            parts = tuple(go(c, positive) for c in node[1:])
            return B.conj(*parts) if positive else B.disj(*parts)
        if tag == "or":
            parts = tuple(go(c, positive) for c in node[1:])
            return B.disj(*parts) if positive else B.conj(*parts)
        if tag in ("true", "false"):
            if positive:
                return node
            return B.TRUE if tag == "false" else B.FALSE
        raise ValueError("not a state combination: %r" % (node,))

    return go(combo, True)
