"""Length analysis: shortest and longest members of an ERE.

Two flavours:

* fast *structural bounds*, exact on complement-free regexes and safe
  (never wrong, possibly loose) on the full ERE class;
* *exact* values computed over the derivative DFA: the shortest member
  is a BFS to a nullable state, the longest a longest-path computation
  (finite languages have acyclic live parts).

Length facts power quick unsat pre-checks (a length window disjoint
from ``[min, max]`` kills a constraint without any search) and the
test suite's cross-checks.
"""

from collections import deque

from repro.errors import refuse_lookarounds
from repro.matcher.dfa_cache import LazyDfa
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


class LengthAnalysis:
    """Exact shortest/longest member lengths via the derivative DFA."""

    def __init__(self, builder, dfa=None):
        self.builder = builder
        self.dfa = dfa or LazyDfa(builder)

    def min_length(self, regex):
        """Length of a shortest member, or ``None`` if empty."""
        if regex.nullable:
            return 0
        seen = {regex}
        queue = deque([(regex, 0)])
        while queue:
            state, depth = queue.popleft()
            for _, target in self.dfa.row(state):
                if target is self.builder.empty or target in seen:
                    continue
                if target.nullable:
                    return depth + 1
                seen.add(target)
                queue.append((target, depth + 1))
        return NO_MEMBER

    def max_length(self, regex):
        """Length of a longest member: ``None`` if empty, ``UNBOUNDED``
        if the language is infinite, else an exact integer."""
        live = self._live_states(regex)
        if regex not in live:
            return NO_MEMBER
        # longest path among live states; a cycle within live states
        # means unbounded members
        WHITE, GREY, BLACK = 0, 1, 2
        color = {}
        longest = {}

        def dfs(state):
            color[state] = GREY
            best = 0 if state.nullable else NO_MEMBER
            for _, target in self.dfa.row(state):
                if target not in live:
                    continue
                mark = color.get(target, WHITE)
                if mark == GREY:
                    raise _Unbounded
                if mark == WHITE:
                    dfs(target)
                sub = longest[target]
                if sub is not NO_MEMBER:
                    candidate = sub + 1
                    if best is NO_MEMBER or candidate > best:
                        best = candidate
            color[state] = BLACK
            longest[state] = best

        try:
            dfs(regex)
        except _Unbounded:
            return UNBOUNDED
        return longest[regex]

    def length_window(self, regex):
        """(min, max) member lengths, exact."""
        return self.min_length(regex), self.max_length(regex)

    def _live_states(self, regex):
        """States that can reach a nullable state (non-empty suffix
        languages)."""
        # forward exploration
        seen = {regex}
        stack = [regex]
        predecessors = {}
        while stack:
            state = stack.pop()
            for _, target in self.dfa.row(state):
                if target is self.builder.empty:
                    continue
                predecessors.setdefault(target, set()).add(state)
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        # backward closure from nullable states
        live = {s for s in seen if s.nullable}
        stack = list(live)
        while stack:
            state = stack.pop()
            for pred in predecessors.get(state, ()):
                if pred not in live:
                    live.add(pred)
                    stack.append(pred)
        return live


class _Unbounded(Exception):
    pass
