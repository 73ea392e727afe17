"""Antimirov partial derivatives and linear forms (paper, Section 8.1).

For standard regexes the *linear form* ``lin(R)`` is a finite set of
pairs ``(phi, R')`` such that ``L(R) = nullable-part ∪ ⋃ phi·L(R')``;
the targets are Antimirov's partial derivatives and correspond to NFA
transitions.

Following [17]/[43] (the CVC4-style approach) intersection is handled
by pairwise conjunction of linear forms — a local product construction,
quadratic per step.  Complement is *not* expressible in this framework
(the paper's key observation); :func:`linear_form` raises
:class:`~repro.errors.UnsupportedError` on ``~``, which the baseline
solver surfaces as an *unknown* answer, mirroring the behaviour of
tools without complement support in the paper's evaluation.
"""

from repro.errors import BudgetExceeded, UnsupportedError, refuse_lookarounds
from repro.regex.ast import (
    COMPL, CONCAT, EMPTY, EPSILON, INF, INTER, LOOP, PRED, UNION,
)


def linear_form(builder, regex):
    """``lin(R)``: list of ``(predicate, continuation-regex)`` pairs.

    The pairs need not have disjoint predicates (this is an NFA view);
    unsatisfiable pairs are dropped.
    """
    refuse_lookarounds(regex, "Antimirov partial derivatives")
    return _linear_form(builder, regex)


def _linear_form(builder, regex):
    algebra = builder.algebra
    kind = regex.kind
    if kind in (EMPTY, EPSILON):
        return []
    if kind == PRED:
        return [(regex.pred, builder.epsilon)]
    if kind == CONCAT:
        head = regex.children[0]
        tail = builder.concat(list(regex.children[1:]))
        pairs = [
            (phi, builder.concat([cont, tail]))
            for phi, cont in _linear_form(builder, head)
        ]
        if head.nullable:
            pairs.extend(_linear_form(builder, tail))
        return _dedup(pairs)
    if kind == LOOP:
        body = regex.children[0]
        lo = max(regex.lo - 1, 0)
        hi = regex.hi if regex.hi is INF else regex.hi - 1
        rest = builder.loop(body, lo, hi)
        return _dedup(
            (phi, builder.concat([cont, rest]))
            for phi, cont in _linear_form(builder, body)
        )
    if kind == UNION:
        pairs = []
        for child in regex.children:
            pairs.extend(_linear_form(builder, child))
        return _dedup(pairs)
    if kind == INTER:
        # pairwise product of the children's linear forms
        current = _linear_form(builder, regex.children[0])
        for child in regex.children[1:]:
            child_pairs = _linear_form(builder, child)
            merged = []
            for phi, cont in current:
                for psi, cont2 in child_pairs:
                    guard = algebra.conj(phi, psi)
                    if algebra.is_sat(guard):
                        merged.append((guard, builder.inter([cont, cont2])))
            current = _dedup(merged)
        return current
    if kind == COMPL:
        raise UnsupportedError(
            "Antimirov partial derivatives do not support complement"
        )
    raise AssertionError("unknown node kind %r" % kind)


def _dedup(pairs):
    seen = set()
    out = []
    for phi, cont in pairs:
        key = (phi, cont.uid)
        if key not in seen:
            seen.add(key)
            out.append((phi, cont))
    return out


def partial_derivatives(builder, regex, char):
    """``∂_char(R)``: the set of partial derivatives w.r.t. a character.

    The union of the returned set is the Brzozowski derivative (tested).
    """
    algebra = builder.algebra
    return {
        cont for phi, cont in linear_form(builder, regex)
        if algebra.member(char, phi)
    }


def matches(builder, regex, string):
    """NFA-style matching with partial-derivative state sets."""
    states = {regex}
    for char in string:
        states = {
            target
            for state in states
            for target in partial_derivatives(builder, state, char)
        }
        if not states:
            return False
    return any(state.nullable for state in states)


def reachable_states(builder, regex, limit=100000):
    """All partial-derivative states reachable from ``regex``.

    This is the (symbolic) Antimirov NFA state space; for standard
    regexes it is linear in the regex size, which the tests check
    against the regex's node count.  Past ``limit`` states it raises
    :class:`~repro.errors.BudgetExceeded`.
    """
    seen = {regex}
    stack = [regex]
    while stack:
        state = stack.pop()
        for _, target in linear_form(builder, state):
            if target not in seen:
                if len(seen) >= limit:
                    raise BudgetExceeded("state limit exceeded")
                seen.add(target)
                stack.append(target)
    return seen
