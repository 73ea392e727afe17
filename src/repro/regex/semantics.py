"""Reference semantics: direct membership evaluation.

This module decides ``s in L(R)`` by structural recursion,
*independently* of derivatives or automata.  It exists as a trusted
oracle for the test suite (derivatives, classical automata and the
solver are all cross-checked against it), and the solver replays
every sat witness through it before reporting one.

For a fixed string ``s`` of length ``n``, ``ends(R, i)`` is the set of
positions ``j`` with ``s[i:j] in L(R)``, held as a Python-int bitset
(bit ``j`` set).  Every ``(node, start)`` pair is computed once per
string from its children's sets; ``s in L(R)`` iff bit ``n`` of
``ends(R, 0)`` is set.  Zero-width assertions are positional: they
look at the whole string around their position, not just their span.
"""

from repro.regex.ast import (
    COMPL, CONCAT, EMPTY, EPSILON, INF, INTER, LOOKAHEAD, LOOKBEHIND, LOOP,
    NEG_LOOKAHEAD, NEG_LOOKBEHIND, PRED, UNION,
)


class Matcher:
    """Membership oracle for one algebra, memoized per string."""

    def __init__(self, algebra):
        self.algebra = algebra
        self._memo = {}
        self._string = None
        self._n = 0

    def _load(self, string):
        """Point the memo at ``string``; False if it leaves the domain
        (languages are subsets of D*, complemented or not)."""
        if string != self._string:
            if any(not self.algebra.in_domain(c) for c in string):
                return False
            self._memo = {}
            self._string = string
            self._n = len(string)
        return True

    def matches(self, regex, string):
        """True iff the entire ``string`` is in ``L(regex)``."""
        if not self._load(string):
            return False
        return bool(self._ends(regex, 0) >> self._n & 1)

    def search(self, regex, string, start=0):
        """Leftmost matching span ``(i, j)`` with ``i >= start`` and
        assertions evaluated against the whole ``string``, or None.

        For the leftmost start the *smallest* end is returned, which
        need not equal ``re.search``'s greedy end — differential tests
        should compare existence and start position only.
        """
        if not self._load(string):
            return None
        for i in range(start, self._n + 1):
            ends = self._ends(regex, i)
            if ends:
                return (i, (ends & -ends).bit_length() - 1)
        return None

    def _ends(self, node, i):
        key = (node.uid, i)
        ends = self._memo.get(key)
        if ends is None:
            ends = self._memo[key] = self._compute(node, i)
        return ends

    def _step(self, node, starts):
        """The union of ``ends(node, p)`` over every ``p`` in ``starts``."""
        out = 0
        while starts:
            low = starts & -starts
            out |= self._ends(node, low.bit_length() - 1)
            starts ^= low
        return out

    def _compute(self, node, i):
        kind = node.kind
        if kind == PRED:
            s = self._string
            if i < self._n and self.algebra.member(s[i], node.pred):
                return 2 << i
            return 0
        if kind == CONCAT:
            ends = 1 << i
            for child in node.children:
                ends = self._step(child, ends)
            return ends
        if kind == LOOP:
            return self._loop(node, i)
        if kind == UNION:
            ends = 0
            for child in node.children:
                ends |= self._ends(child, i)
            return ends
        if kind == INTER:
            ends = -1
            for child in node.children:
                ends &= self._ends(child, i)
            return ends
        if kind == COMPL:
            from_i = ((2 << self._n) - 1) >> i << i
            return from_i & ~self._ends(node.children[0], i)
        if kind == EPSILON:
            return 1 << i
        if kind == EMPTY:
            return 0
        if kind in (LOOKAHEAD, NEG_LOOKAHEAD):
            holds = self._ends(node.children[0], i) != 0
        elif kind in (LOOKBEHIND, NEG_LOOKBEHIND):
            body = node.children[0]
            holds = any(self._ends(body, q) >> i & 1 for q in range(i + 1))
        else:
            raise AssertionError("unknown node kind %r" % kind)
        if kind in (NEG_LOOKAHEAD, NEG_LOOKBEHIND):
            holds = not holds
        return 1 << i if holds else 0

    def _loop(self, loop, i):
        """``ends`` of ``R{lo,hi}`` at ``i``: the union of ``E_k``, the
        ends after exactly ``k`` body iterations, for ``lo <= k <= hi``.

        A run of ``k > n - i`` iterations has a zero-width one (at most
        ``n - i`` of them consume), which may be repeated or dropped in
        place, so ``E_k`` is constant from ``k = n - i + 1`` on.  Hence
        the first loop meets a fixed point within ``n - i + 2`` rounds,
        even for ``lo`` far beyond it.  Past ``lo`` the ends are the
        positions within ``hi - lo`` body steps of ``E_lo``: a
        breadth-first closure that expands each position once.
        """
        body = loop.children[0]
        ends = 1 << i
        for _ in range(loop.lo):
            nxt = self._step(body, ends)
            if nxt == ends:
                break
            ends = nxt
        frontier = ends
        rounds = self._n + 1 if loop.hi is INF else loop.hi - loop.lo
        while frontier and rounds:
            frontier = self._step(body, frontier) & ~ends
            ends |= frontier
            rounds -= 1
        return ends


def matches(algebra, regex, string):
    """Convenience one-shot membership check."""
    return Matcher(algebra).matches(regex, string)


def enumerate_strings(alphabet, max_length):
    """All strings over ``alphabet`` (a string) up to ``max_length``,
    shortest first.  Used for exhaustive language comparisons in tests."""
    level = [""]
    yield ""
    for _ in range(max_length):
        level = [s + c for s in level for c in alphabet]
        for s in level:
            yield s


def language_upto(algebra, regex, alphabet, max_length):
    """The finite slice ``L(R) ∩ alphabet^{<=max_length}`` as a set."""
    matcher = Matcher(algebra)
    return {
        s for s in enumerate_strings(alphabet, max_length)
        if matcher.matches(regex, s)
    }
