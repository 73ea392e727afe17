"""The eager automata compiler: "approach 1" end to end.

``eager_compile`` turns an arbitrary ERE into one SFA by recursively
compiling subterms and combining them with automaton operations:

* standard subtrees go through the Thompson construction;
* ``&`` becomes a product, ``|`` an NFA union;
* ``~`` forces determinization (subset construction) then flips finals;
* bounded loops are expanded into copies.

Everything is built *before* any question is asked — which is the
point: on adversarial inputs the :class:`~repro.automata.sfa.
StateBudget` blows before emptiness is ever checked, while the lazy
derivative solver answers in a handful of states.
"""

from repro.errors import refuse_lookarounds
from repro.regex.ast import (
    COMPL, CONCAT, EMPTY, EPSILON, INF, INTER, LOOP, PRED, UNION,
    fold_postorder,
)
from repro.automata.sfa import SFA, StateBudget
from repro.automata.thompson import thompson
from repro.automata import ops


def _is_standard(regex):
    return fold_postorder(
        regex, lambda node, kids: node.kind not in (INTER, COMPL) and all(kids)
    )


def eager_compile(algebra, regex, budget=None):
    """Compile an ERE into an SFA, eagerly materializing all states."""
    refuse_lookarounds(regex, "automata compilation")
    budget = budget or StateBudget()
    return _compile(algebra, regex, budget)


def _compile(algebra, regex, budget):
    if _is_standard(regex):
        return thompson(algebra, regex, budget)
    kind = regex.kind
    if kind == UNION:
        result = _compile(algebra, regex.children[0], budget)
        for child in regex.children[1:]:
            result = ops.nfa_union(result, _compile(algebra, child, budget), budget)
        return result
    if kind == INTER:
        result = _compile(algebra, regex.children[0], budget)
        for child in regex.children[1:]:
            result = ops.product(
                result, _compile(algebra, child, budget), budget, mode="inter"
            ).trim()
        return result
    if kind == COMPL:
        inner = _compile(algebra, regex.children[0], budget)
        return ops.complement(inner, budget)
    if kind == CONCAT:
        result = _compile(algebra, regex.children[0], budget)
        for child in regex.children[1:]:
            result = ops.nfa_concat(result, _compile(algebra, child, budget), budget)
        return result
    if kind == LOOP:
        body = _compile(algebra, regex.children[0], budget)
        lo, hi = regex.lo, regex.hi
        pieces = []
        for _ in range(lo):
            pieces.append(body)
        if hi is INF:
            pieces.append(ops.nfa_star(body, budget))
        else:
            optional = _optional(body, budget)
            for _ in range(hi - lo):
                pieces.append(optional)
        if not pieces:
            return _epsilon_sfa(algebra, budget)
        result = pieces[0]
        for piece in pieces[1:]:
            result = ops.nfa_concat(result, piece, budget)
        return result
    raise AssertionError("unreachable: standard kinds handled above")


def _optional(sfa, budget):
    """``A?``: add an epsilon bypass via a fresh initial/final state."""
    budget.charge(sfa.num_states + 1)
    hub = sfa.num_states
    transitions = {s: list(sfa.moves(s)) for s in range(sfa.num_states) if sfa.moves(s)}
    epsilons = {s: set(t) for s, t in sfa.epsilons.items()}
    epsilons.setdefault(hub, set()).add(sfa.initial)
    finals = set(sfa.finals) | {hub}
    return SFA(sfa.algebra, sfa.num_states + 1, hub, finals, transitions, epsilons)


def _epsilon_sfa(algebra, budget):
    budget.charge()
    return SFA(algebra, 1, 0, {0}, {}, None, deterministic=True)
