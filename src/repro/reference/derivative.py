"""The symbolic derivative ``delta`` (paper, Section 4).

``delta(R)`` is a transition regex such that for every character ``a``,
``L(delta(R)(a)) = L(D_a(R))`` — the Brzozowski derivative — *without
knowing* ``a`` (Theorem 4.3).  The conditional construct is what makes
the definition closed under complement and intersection.

Rules (plus the loop generalization used for bounded quantifiers)::

    delta(eps) = delta(bot) = bot
    delta(phi) = if(phi, eps, bot)
    delta(R . R') = delta(R) . R' | delta(R')   if nullable(R)
                  = delta(R) . R'               otherwise
    delta(R*) = delta(R) . R*
    delta(R{lo,hi}) = delta(R) . R{max(lo-1,0), hi-1}
    delta(R | R') = delta(R) | delta(R')
    delta(R & R') = delta(R) & delta(R')
    delta(~R) = ~delta(R)
"""

from repro.errors import refuse_lookarounds
from repro.regex.ast import (
    COMPL, CONCAT, EMPTY, EPSILON, INF, INTER, LOOP, PRED, UNION,
)
from repro.reference.transition import (
    TRCompl, TRCond, TRInter, TRLeaf, TRUnion, apply, tr_concat,
)


def derivative(builder, regex):
    """Compute the symbolic derivative ``delta(regex)`` as a TR.

    Zero-width assertions are refused: the node-local rule (an
    assertion consumes nothing, so ``delta`` of it is bottom) is sound
    only at the node itself, and iterating it through the concatenation
    rule derives ``(?=a)a`` to bottom on ``a``.
    """
    refuse_lookarounds(regex, "symbolic derivatives (delta)")
    return _delta(builder, regex)


def _delta(builder, regex):
    if regex.kind in (EMPTY, EPSILON):
        return TRLeaf(builder.empty)
    if regex.kind == PRED:
        if builder.algebra.is_valid(regex.pred):
            return TRLeaf(builder.epsilon)
        return TRCond(regex.pred, TRLeaf(builder.epsilon), TRLeaf(builder.empty))
    if regex.kind == CONCAT:
        head = regex.children[0]
        tail = builder.concat(list(regex.children[1:]))
        left = tr_concat(builder, _delta(builder, head), tail)
        if head.nullable:
            return TRUnion((left, _delta(builder, tail)))
        return left
    if regex.kind == LOOP:
        body = regex.children[0]
        rest = _loop_rest(builder, regex)
        return tr_concat(builder, _delta(builder, body), rest)
    if regex.kind == UNION:
        return TRUnion(tuple(_delta(builder, c) for c in regex.children))
    if regex.kind == INTER:
        return TRInter(tuple(_delta(builder, c) for c in regex.children))
    if regex.kind == COMPL:
        return TRCompl(_delta(builder, regex.children[0]))
    raise AssertionError("unknown node kind %r" % regex.kind)


def _loop_rest(builder, loop):
    """The loop with one iteration consumed: ``R{lo-1, hi-1}``."""
    lo = max(loop.lo - 1, 0)
    hi = loop.hi if loop.hi is INF else loop.hi - 1
    return builder.loop(loop.children[0], lo, hi)


def brzozowski_via_delta(builder, regex, char):
    """``D_a(R)`` computed by evaluating the symbolic derivative.

    By Theorem 4.3 this equals the classical Brzozowski derivative; the
    test suite checks it against :mod:`repro.derivatives.brzozowski`.
    """
    return apply(builder, derivative(builder, regex), char)
