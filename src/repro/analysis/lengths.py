"""Structural length bounds: shortest and longest members of an ERE.

Each bound is one fold over the syntax: exact on complement-free
regexes and safe (never wrong, possibly loose) on the
full ERE class.  The metamorphic identities and the corpus replay
check them.
"""

from repro.errors import refuse_lookarounds
from repro.regex.ast import (
    COMPL, CONCAT, EMPTY, EPSILON, INF, INTER, LOOP, PRED, UNION,
    fold_postorder,
)

#: Symbolic "no member" (for bounds of the empty language).
NO_MEMBER = None
#: Symbolic "unbounded" maximum.
UNBOUNDED = float("inf")


def structural_min(regex):
    """A lower bound on member length; exact when ``~`` is absent.

    Returns ``None`` for (syntactically evident) empty languages.  An
    iterative fold (:func:`~repro.regex.ast.fold_postorder`), so deep
    regexes are handled.
    """

    # a zero-width assertion's contribution is 0, but under ~ the
    # complement rule below would then claim bounds that positional
    # semantics can break (~(?=a) contains eps)
    refuse_lookarounds(regex, "structural length bounds")

    def bound(node, kids):
        kind = node.kind
        if kind == EMPTY:
            return NO_MEMBER
        if kind == EPSILON:
            return 0
        if kind == PRED:
            return 1
        if kind == CONCAT:
            if any(sub is NO_MEMBER for sub in kids):
                return NO_MEMBER
            return sum(kids)
        if kind == UNION:
            subs = [s for s in kids if s is not NO_MEMBER]
            return min(subs) if subs else NO_MEMBER
        if kind == INTER:
            # a member of the intersection is a member of every
            # conjunct: the max of the lower bounds is still a lower
            # bound
            if any(sub is NO_MEMBER for sub in kids):
                return NO_MEMBER
            return max(kids, default=0)
        if kind == COMPL:
            # the complement contains eps iff the body does not
            return 1 if node.children[0].nullable else 0
        if kind == LOOP:
            if node.lo == 0:
                return 0
            sub = kids[0]
            if sub is NO_MEMBER:
                return NO_MEMBER
            return sub * node.lo
        raise AssertionError("unknown node kind %r" % kind)

    return fold_postorder(regex, bound)


def structural_max(regex):
    """An upper bound on member length; exact when ``~`` is absent.

    ``UNBOUNDED`` means no finite bound is evident.  An iterative fold
    (:func:`~repro.regex.ast.fold_postorder`), so deep regexes are
    handled.
    """

    refuse_lookarounds(regex, "structural length bounds")

    def bound(node, kids):
        kind = node.kind
        if kind == EMPTY:
            return NO_MEMBER
        if kind == EPSILON:
            return 0
        if kind == PRED:
            return 1
        if kind == CONCAT:
            if any(sub is NO_MEMBER for sub in kids):
                return NO_MEMBER
            return sum(kids)
        if kind == UNION:
            subs = [s for s in kids if s is not NO_MEMBER]
            return max(subs) if subs else NO_MEMBER
        if kind == INTER:
            # any conjunct's upper bound caps the intersection
            if any(sub is NO_MEMBER for sub in kids):
                return NO_MEMBER
            return min(kids, default=UNBOUNDED)
        if kind == COMPL:
            # complements of non-universal languages are
            # co-finite-ish: no finite bound can be concluded
            # structurally
            return UNBOUNDED
        if kind == LOOP:
            sub = kids[0]
            if sub is NO_MEMBER:
                return 0 if node.lo == 0 else NO_MEMBER
            if node.hi is INF:
                return UNBOUNDED if sub else 0
            return sub * node.hi
        raise AssertionError("unknown node kind %r" % kind)

    return fold_postorder(regex, bound)
