"""Test-only definitional oracle: membership by (start, end) pairs.

This is the reference semantics as it stood before the end-position-set
rewrite of :mod:`repro.regex.semantics`, kept verbatim.  It decides
``s[start:end] in L(R)`` for each span separately, straight from the
definitions of the operators, which makes it slow but easy to read.  The
tests differentially check the production matcher against it; nothing
outside ``tests/`` imports it.
"""

from repro.regex.ast import (
    COMPL, CONCAT, EMPTY, EPSILON, INF, INTER, LOOK_KINDS, LOOKAHEAD,
    LOOKBEHIND, LOOP, NEG_LOOKAHEAD, PRED, UNION,
)


class PairMatcher:
    """Membership oracle for one algebra, memoized across calls."""

    def __init__(self, algebra):
        self.algebra = algebra
        self._memo = {}
        self._string = None

    def matches(self, regex, string):
        """True iff the entire ``string`` is in ``L(regex)``."""
        # languages are subsets of D*: a string with an out-of-domain
        # character is in no language, complemented or not
        if any(not self.algebra.in_domain(c) for c in string):
            return False
        if string != self._string:
            self._memo = {}
            self._string = string
        return self._match(regex, 0, len(string))

    def _match(self, node, start, end):
        key = (node.uid, start, end)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        # Seed with False so ill-founded cycles (impossible for EREs,
        # but cheap insurance) resolve to non-membership.
        self._memo[key] = False
        result = self._compute(node, start, end)
        self._memo[key] = result
        return result

    def _compute(self, node, start, end):
        s = self._string
        if node.kind == EMPTY:
            return False
        if node.kind == EPSILON:
            return start == end
        if node.kind == PRED:
            return end == start + 1 and self.algebra.member(s[start], node.pred)
        if node.kind == UNION:
            return any(self._match(c, start, end) for c in node.children)
        if node.kind == INTER:
            return all(self._match(c, start, end) for c in node.children)
        if node.kind == COMPL:
            return not self._match(node.children[0], start, end)
        if node.kind == CONCAT:
            return self._match_seq(node, 0, start, end)
        if node.kind == LOOP:
            return self._match_loop(node, start, end)
        if node.kind in LOOK_KINDS:
            # zero-width: the span must be empty, and the assertion is
            # evaluated against the *whole* string around the position
            return start == end and self._assertion_holds(node, start)
        raise AssertionError("unknown node kind %r" % node.kind)

    def _assertion_holds(self, node, pos):
        """Positional truth of a lookaround at ``pos``: lookaheads ask
        for a body match over some ``[pos, q]``, lookbehinds over some
        ``[q, pos]``; negatives negate."""
        body = node.children[0]
        if node.kind in (LOOKAHEAD, NEG_LOOKAHEAD):
            holds = any(
                self._match(body, pos, q)
                for q in range(pos, len(self._string) + 1)
            )
            return holds if node.kind == LOOKAHEAD else not holds
        holds = any(self._match(body, q, pos) for q in range(0, pos + 1))
        return holds if node.kind == LOOKBEHIND else not holds

    def _match_seq(self, concat, index, start, end):
        children = concat.children
        if index == len(children) - 1:
            return self._match(children[index], start, end)
        key = ("seq", concat.uid, index, start, end)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self._memo[key] = False
        result = any(
            self._match(children[index], start, mid)
            and self._match_seq(concat, index + 1, mid, end)
            for mid in range(start, end + 1)
        )
        self._memo[key] = result
        return result

    def _match_loop(self, loop, start, end):
        body = loop.children[0]
        lo, hi = loop.lo, loop.hi
        if body.has_look:
            # a body with assertions may match the empty span at some
            # positions only, invalidating both classical shortcuts
            # below (lower-bound erasure and the "every iteration
            # consumes" bound); take the positional path
            return self._match_loop_positional(loop, start, end)
        if body.nullable:
            # eps in L(body) makes powers increasing, so the lower
            # bound never constrains which strings are matchable.
            lo = 0
        if lo == 0 and start == end:
            return True
        if hi is INF:
            if body.nullable:
                # layers are monotone; fixpoint within #positions steps
                max_iter = (end - start) + 1
            else:
                # every iteration consumes at least one character
                if lo > end - start:
                    return False
                max_iter = end - start
        else:
            max_iter = hi
        # current = positions reachable with exactly j body-iterations
        current = {start}
        for j in range(1, max_iter + 1):
            nxt = set()
            for p in current:
                for q in range(p, end + 1):
                    if self._match(body, p, q):
                        nxt.add(q)
            if end in nxt and j >= lo:
                return True
            if not nxt or nxt == current:
                return False
            current = nxt
        return False

    def _match_loop_positional(self, loop, start, end):
        """Loop matching for assertion-bearing bodies.

        States are ``(position, padded)`` pairs reachable with exactly
        ``j`` body iterations, where ``padded`` records that some
        iteration on the path was zero-width — such an iteration can be
        repeated in place, so any higher iteration count is reachable
        too.  An accepting run with an empty-span iteration can be
        normalized to keep only its consuming iterations plus one
        zero-width one, so ``(end - start) + 1`` rounds are complete.
        """
        body = loop.children[0]
        lo, hi = loop.lo, loop.hi
        if lo == 0 and start == end:
            return True
        max_iter = (end - start) + 1
        if hi is not INF:
            max_iter = min(max_iter, hi)
        current = {(start, False)}
        for j in range(1, max_iter + 1):
            nxt = set()
            for p, padded in current:
                for q in range(p, end + 1):
                    if self._match(body, p, q):
                        nxt.add((q, padded or q == p))
            for q, padded in nxt:
                if q == end and (padded or j >= lo):
                    return True
            if not nxt or nxt == current:
                return False
            current = nxt
        return False

    def search(self, regex, string, start=0):
        """Leftmost matching span ``(i, j)`` with ``i >= start`` and
        assertions evaluated against the whole ``string``, or None.

        For the leftmost start the *smallest* end is returned, which
        need not equal ``re.search``'s greedy end — differential tests
        should compare existence and start position only.
        """
        if any(not self.algebra.in_domain(c) for c in string):
            return None
        if string != self._string:
            self._memo = {}
            self._string = string
        n = len(string)
        for i in range(start, n + 1):
            for j in range(i, n + 1):
                if self._match(regex, i, j):
                    return (i, j)
        return None

