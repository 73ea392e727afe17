"""Boolean operations on SBFAs — the payoff of ``B(Q)`` transitions.

On classical automata, intersection needs a product construction and
complement needs determinization (worst-case exponential, §8.3).  On
SBFAs both are *constant-time structural* operations: take the union
of the state spaces and combine the initial state combinations with
the Boolean connective — the transition function doesn't change at
all.  This mirrors the remark in §8.3 that complement of alternating
data automata is linear, "unlike in [22]" (SAFAs).
"""

from repro.reference.sbfa import boolstate as B
from repro.reference.sbfa.sbfa import SBFA


def _merged(left, right):
    """Shared-state-space merge of two SBFAs over one algebra.

    States are assumed compatible (e.g. both built from regexes over
    the same builder, where equal states are identical objects and
    have identical transition regexes).
    """
    if left.algebra is not right.algebra:
        raise ValueError("SBFAs must share a character algebra")
    if left.bottom != right.bottom:
        raise ValueError("SBFAs must share the bottom state")
    delta = dict(left.delta)
    for state, tr in right.delta.items():
        existing = delta.get(state)
        if existing is not None and existing != tr:
            raise ValueError(
                "state %r has conflicting transition regexes" % (state,)
            )
        delta[state] = tr
    return (
        left.states | right.states,
        left.finals | right.finals,
        delta,
    )


def union(left, right):
    """``L(union(M, N)) = L(M) | L(N)`` — just disjoin the initials."""
    states, finals, delta = _merged(left, right)
    return SBFA(
        left.algebra, states, B.disj(left.initial, right.initial),
        finals, left.bottom, delta,
    )


def inter(left, right):
    """``L(inter(M, N)) = L(M) & L(N)`` — just conjoin the initials."""
    states, finals, delta = _merged(left, right)
    return SBFA(
        left.algebra, states, B.conj(left.initial, right.initial),
        finals, left.bottom, delta,
    )


def complement(sbfa):
    """``L(complement(M)) = Sigma* \\ L(M)`` — negate the initial.

    No new states, no determinization: this is the constant-time
    complement that motivates Boolean (rather than merely alternating)
    automata.
    """
    return SBFA(
        sbfa.algebra, set(sbfa.states), B.neg(sbfa.initial),
        set(sbfa.finals), sbfa.bottom, dict(sbfa.delta),
    )


def difference(left, right):
    """``L(M) \\ L(N)``."""
    return inter(left, complement(right))
