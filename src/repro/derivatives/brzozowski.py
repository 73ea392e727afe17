"""Classical Brzozowski derivatives (paper, Section 8.1).

``D_a(R)`` for a *concrete* character ``a`` extends to the whole ERE
class.  This module provides:

* the per-character derivative — the reference against which Theorem
  4.3 (``delta(R)(a) == D_a(R)``) is tested;
* derivative-based matching;
* the *finitization* view: treating ``Minterms(Psi_R)`` as a finite
  alphabet and deriving per minterm, which is the classically complete
  but potentially exponential approach the paper contrasts with
  (Section 8.3) and which backs one of the baseline solvers.
"""

from repro.alphabet.minterms import minterms
from repro.errors import refuse_lookarounds
from repro.regex.ast import (
    COMPL, CONCAT, EMPTY, EPSILON, INF, INTER, LOOP, PRED, UNION,
)


def brzozowski(builder, regex, char):
    """The classical derivative ``D_char(regex)``.

    Out-of-domain characters derive to bottom (checked up front:
    ``D_a(~R) = ~D_a(R)`` would otherwise wrongly admit them).  The
    zero-width node-local derivative would be bottom, so iterated
    matching would silently mis-derive ``(?=a)a`` on ``a``: assertions
    are refused instead.
    """
    refuse_lookarounds(regex, "Brzozowski derivatives")
    if not builder.algebra.in_domain(char):
        return builder.empty
    memo = {}

    def go(node):
        cached = memo.get(node.uid)
        if cached is not None:
            return cached
        result = _derive(builder, node, char, go)
        memo[node.uid] = result
        return result

    return go(regex)


def _derive(builder, node, char, go):
    kind = node.kind
    if kind in (EMPTY, EPSILON):
        return builder.empty
    if kind == PRED:
        if builder.algebra.member(char, node.pred):
            return builder.epsilon
        return builder.empty
    if kind == CONCAT:
        head = node.children[0]
        tail = builder.concat(list(node.children[1:]))
        left = builder.concat([go(head), tail])
        if head.nullable:
            return builder.union([left, go(tail)])
        return left
    if kind == LOOP:
        body = node.children[0]
        lo = max(node.lo - 1, 0)
        hi = node.hi if node.hi is INF else node.hi - 1
        return builder.concat([go(body), builder.loop(body, lo, hi)])
    if kind == UNION:
        return builder.union([go(c) for c in node.children])
    if kind == INTER:
        return builder.inter([go(c) for c in node.children])
    if kind == COMPL:
        return builder.compl(go(node.children[0]))
    raise AssertionError("unknown node kind %r" % kind)


def derive_string(builder, regex, string):
    """Iterated classical derivative over a string."""
    current = regex
    for char in string:
        current = brzozowski(builder, current, char)
    return current


def matches(builder, regex, string):
    """Membership by Brzozowski's theorem: derive, then test nullable."""
    return derive_string(builder, regex, string).nullable


def minterm_transitions(builder, regex):
    """Transitions of the regex-as-state under the finitized alphabet.

    Returns ``[(minterm, derivative-regex)]`` where the minterms are
    built from *all* predicates of ``regex`` — up to ``2**n`` of them.
    This is the up-front mintermization cost the symbolic approach
    avoids; the baseline solver built on this exhibits the blowup the
    paper describes for e.g. Unicode character classes.
    """
    algebra = builder.algebra
    parts = minterms(algebra, sorted_predicates(regex))
    out = []
    for part in parts:
        witness = algebra.pick(part)
        out.append((part, brzozowski(builder, regex, witness)))
    return out


def sorted_predicates(regex):
    """``Psi_R`` in a deterministic order (for reproducible minterms)."""
    preds = list(regex.predicates())
    preds.sort(key=repr)
    return preds
