"""Fused, clean conditional-tree derivatives — what dZ3 actually computes.

The literal pipeline ``delta -> NNF -> lift -> DNF`` of
:mod:`repro.reference` is ideal for studying the calculus but rebuilds
intermediate transition regexes.  This module fuses the whole pipeline
into one memoized recursion producing a *clean conditional tree*:

* an interned binary decision tree over character predicates,
* every branch satisfiable given the predicates on its path (the
  paper's "clean" property, maintained by on-the-fly pruning with
  the extensional character algebra),
* each leaf a finite *set* of EREs denoting their union — the leaves
  of the paper's DNF, so ``Q(delta_dnf(R))`` is literally the union of
  the leaf sets.

The engine memoizes trees per regex, so repeatedly deriving the same
state (which the solver does constantly) is a dictionary lookup.  Tests
check this engine pointwise against the literal pipeline and against
classical Brzozowski derivatives.
"""

from repro.errors import refuse_lookarounds
from repro.obs import Observability
from repro.regex.ast import (
    COMPL, CONCAT, EMPTY, EPSILON, INF, INTER, LOOP, PRED, UNION,
)
from repro.regex.builder import _foreign


class Leaf:
    """A DNF leaf: a frozenset of EREs, denoting their union.

    The empty set denotes ``bottom``.  Interned by the engine.
    """

    __slots__ = ("regexes", "uid")

    def __init__(self, regexes, uid):
        self.regexes = regexes
        self.uid = uid

    is_leaf = True

    def __repr__(self):
        return "Leaf({%s})" % ", ".join(sorted(repr(r) for r in self.regexes))


class Node:
    """An internal decision node: branch on a character predicate."""

    __slots__ = ("pred", "then", "other", "uid")

    def __init__(self, pred, then, other, uid):
        self.pred = pred
        self.then = then
        self.other = other
        self.uid = uid

    is_leaf = False

    def __repr__(self):
        return "Node(%r, %r, %r)" % (self.pred, self.then, self.other)


_UNION = "union"
_INTER = "inter"


class DerivativeEngine:
    """Clean conditional-tree derivative computation for one builder."""

    def __init__(self, builder, obs=None):
        self.builder = builder
        self.algebra = builder.algebra
        self.obs = obs if obs is not None else Observability()
        # every table keys by integers: regex and tree uids, and the
        # predicates' ``key`` (equal keys denote equal sets)
        self._trees = {}       # (pred key, uid, uid) -> interned tree
        self._leaves = {}      # frozenset of regex uids -> interned Leaf
        self._next_uid = 0
        self._deriv_memo = {}  # regex uid -> tree
        self._meld_memo = {}   # (op, uid, uid, path key) -> tree
        self._restrict_memo = {}  # (uid, path key) -> tree
        # hot-path counters are plain ints (a bare ``+=`` beats even a
        # no-op method call at derivative/meld frequencies); the
        # registry's ``deriv`` scope reads them in place at snapshot time
        self.sat_checks = 0
        self.deriv_memo_hits = 0
        self.deriv_memo_misses = 0
        self.meld_memo_hits = 0
        self.meld_memo_misses = 0
        #: bound ``tracer.span`` when tracing is live, else None — hot
        #: paths test this one attribute instead of entering null spans
        self._span = (
            self.obs.tracer.span if self.obs.tracer.enabled else None
        )
        self.obs.metrics.scope("deriv").read_from(self._counters)
        #: the interned leaf ``{}`` (bottom), built once; ``compact``
        #: keeps it, so ``leaf(())`` always returns this very object
        self.bottom_leaf = self.leaf(())

    def _counters(self):
        return {
            "sat_checks": self.sat_checks,
            "deriv_memo_hits": self.deriv_memo_hits,
            "deriv_memo_misses": self.deriv_memo_misses,
            "meld_memo_hits": self.meld_memo_hits,
            "meld_memo_misses": self.meld_memo_misses,
        }

    # -- interning ---------------------------------------------------------

    def leaf(self, regexes):
        """Interned leaf for a set of regexes (normalized)."""
        empty = self.builder.empty
        full = self.builder.full
        normalized = {}
        for r in regexes:
            if r is empty:
                continue
            if r is full:
                normalized = {full.uid: full}
                break
            normalized[r.uid] = r
        # keyed by integer uids, so a hit hashes no regex
        key = frozenset(normalized)
        cached = self._leaves.get(key)
        if cached is None:
            # a leaf's iteration order fixes the order in which
            # ``_leaf_combine`` creates cross-product nodes, and so
            # their uids and every witness: build the frozenset from a
            # set filled in input order (a frozenset built straight
            # from the dict view iterates differently)
            cached = Leaf(frozenset(set(normalized.values())), self._next_uid)
            self._next_uid += 1
            self._leaves[key] = cached
        return cached

    def node(self, pred, then, other):
        """Interned decision node; collapses equal branches."""
        if then is other:
            return then
        key = (pred.key, then.uid, other.uid)
        cached = self._trees.get(key)
        if cached is None:
            cached = Node(pred, then, other, self._next_uid)
            self._next_uid += 1
            self._trees[key] = cached
        return cached

    # -- leaf algebra --------------------------------------------------------

    def _leaf_combine(self, op, a, b):
        builder = self.builder
        if op == _UNION:
            return self.leaf(a.regexes | b.regexes)
        # intersection of two unions: cross products of conjuncts
        if not a.regexes or not b.regexes:
            return self.bottom_leaf
        return self.leaf(
            builder.inter([x, y]) for x in a.regexes for y in b.regexes
        )

    def _leaf_negate(self, a):
        builder = self.builder
        # ~(A | B | ...) = ~A & ~B & ...; ~bottom = .*
        if not a.regexes:
            return self.leaf((builder.full,))
        return self.leaf((builder.inter([builder.compl(r) for r in a.regexes]),))

    # -- tree algebra -----------------------------------------------------------

    def meld(self, op, a, b, path=None):
        """Combine two clean trees under ``op``, pruning unsat branches.

        ``path`` is the conjunction of predicates assumed so far; the
        result is clean relative to ``path``.
        """
        if path is None:
            if self._span is not None:
                with self._span("deriv.meld"):
                    return self._meld(op, a, b, self.algebra.top)
            return self._meld(op, a, b, self.algebra.top)
        return self._meld(op, a, b, path)

    def _meld(self, op, a, b, path):
        algebra = self.algebra
        if a.is_leaf and b.is_leaf:
            return self._leaf_combine(op, a, b)
        key = (op, a.uid, b.uid, path.key)
        cached = self._meld_memo.get(key)
        if cached is not None:
            self.meld_memo_hits += 1
            return cached
        self.meld_memo_misses += 1
        # split on whichever side has a decision node (prefer a)
        pivot, rest, swapped = (a, b, False) if not a.is_leaf else (b, a, True)
        then_path = algebra.conj(path, pivot.pred)
        else_path = algebra.conj(path, algebra.neg(pivot.pred))
        self.sat_checks += 2
        if not algebra.is_sat(then_path):
            left, right = (pivot.other, rest) if not swapped else (rest, pivot.other)
            result = self._meld(op, left, right, path)
        elif not algebra.is_sat(else_path):
            left, right = (pivot.then, rest) if not swapped else (rest, pivot.then)
            result = self._meld(op, left, right, path)
        else:
            rest_then = self._restrict(rest, then_path)
            rest_else = self._restrict(rest, else_path)
            if swapped:
                result = self.node(
                    pivot.pred,
                    self._meld(op, rest_then, pivot.then, then_path),
                    self._meld(op, rest_else, pivot.other, else_path),
                )
            else:
                result = self.node(
                    pivot.pred,
                    self._meld(op, pivot.then, rest_then, then_path),
                    self._meld(op, pivot.other, rest_else, else_path),
                )
        self._meld_memo[key] = result
        return result

    def _restrict(self, tree, path):
        """Prune branches of ``tree`` that are unsat under ``path``.

        Memoized: a hit returns the very node the recursion would
        re-intern, since ``compact`` keeps an entry only while its tree
        and its result both stay interned."""
        if tree.is_leaf:
            return tree
        key = (tree.uid, path.key)
        cached = self._restrict_memo.get(key)
        if cached is not None:
            return cached
        algebra = self.algebra
        then_path = algebra.conj(path, tree.pred)
        else_path = algebra.conj(path, algebra.neg(tree.pred))
        self.sat_checks += 2
        if not algebra.is_sat(then_path):
            result = self._restrict(tree.other, path)
        elif not algebra.is_sat(else_path):
            result = self._restrict(tree.then, path)
        else:
            result = self.node(
                tree.pred,
                self._restrict(tree.then, then_path),
                self._restrict(tree.other, else_path),
            )
        self._restrict_memo[key] = result
        return result

    def negate(self, tree):
        """Dual tree: complement every leaf (Lemma 4.2 at tree level)."""
        if tree.is_leaf:
            return self._leaf_negate(tree)
        return self.node(tree.pred, self.negate(tree.then), self.negate(tree.other))

    def concat(self, tree, regex):
        """``tree . regex``: append to every leaf alternative."""
        builder = self.builder
        if regex is builder.epsilon:
            return tree
        if tree.is_leaf:
            return self.leaf(builder.concat([r, regex]) for r in tree.regexes)
        return self.node(
            tree.pred, self.concat(tree.then, regex), self.concat(tree.other, regex)
        )

    # -- the derivative ------------------------------------------------------------

    def derivative(self, regex):
        """The clean conditional tree for ``delta_dnf(regex)``.

        Assertions are positional: their truth at a state depends on
        context the fused automaton does not carry, so they are refused
        here, before any work.  The solver eliminates lookarounds
        (:mod:`repro.regex.transform`) before reaching this engine.
        """
        refuse_lookarounds(regex, "conditional-tree derivatives")
        # uids are per builder: another builder's regex would answer
        # from this builder's memo entry of the same uid
        if regex.owner is not self.builder:
            raise _foreign(regex)
        return self._tree(regex)

    def _tree(self, regex):
        cached = self._deriv_memo.get(regex.uid)
        if cached is not None:
            self.deriv_memo_hits += 1
            return cached
        self.deriv_memo_misses += 1
        if self._span is not None:
            with self._span("deriv.tree", uid=regex.uid):
                result = self._derive(regex)
        else:
            result = self._derive(regex)
        self._deriv_memo[regex.uid] = result
        return result

    def _derive(self, regex):
        builder = self.builder
        kind = regex.kind
        if kind in (EMPTY, EPSILON):
            return self.bottom_leaf
        if kind == PRED:
            eps_leaf = self.leaf((builder.epsilon,))
            if self.algebra.is_valid(regex.pred):
                return eps_leaf
            return self.node(regex.pred, eps_leaf, self.bottom_leaf)
        if kind == CONCAT:
            head = regex.children[0]
            tail = builder.concat(list(regex.children[1:]))
            left = self.concat(self._tree(head), tail)
            if head.nullable:
                return self.meld(_UNION, left, self._tree(tail))
            return left
        if kind == LOOP:
            body = regex.children[0]
            lo = max(regex.lo - 1, 0)
            hi = regex.hi if regex.hi is INF else regex.hi - 1
            return self.concat(self._tree(body), builder.loop(body, lo, hi))
        if kind == UNION:
            return self._fold(_UNION, regex.children)
        if kind == INTER:
            return self._fold(_INTER, regex.children)
        if kind == COMPL:
            return self.negate(self._tree(regex.children[0]))
        raise AssertionError("unknown node kind %r" % kind)

    def _fold(self, op, children):
        result = self._tree(children[0])
        for child in children[1:]:
            result = self.meld(op, result, self._tree(child))
        return result

    # -- lifecycle -----------------------------------------------------------------

    def cache_entries(self):
        """Total entries across the engine's five tables (used by the
        lifecycle layer's accounting)."""
        return (
            len(self._trees) + len(self._leaves) + len(self._deriv_memo)
            + len(self._meld_memo) + len(self._restrict_memo)
        )

    def compact(self, live):
        """Retire cache entries for regexes not in ``live`` (a mapping
        of uid -> regex built by :class:`repro.solver.lifecycle.EngineState`).

        Keeps the derivative memo entries of live regexes, the interned
        trees reachable from those entries, the meld memo entries whose
        operands and result all survive, and the restriction memo
        entries whose tree and result both survive.  Tree uids are never
        reused (``_next_uid`` is untouched), so interning stays sound
        for any tree a caller might still hold.  Returns the number of
        retired entries.
        """
        before = self.cache_entries()
        kept_memo = {
            uid: tree for uid, tree in self._deriv_memo.items() if uid in live
        }
        live_trees = {}
        stack = list(kept_memo.values())
        while stack:
            t = stack.pop()
            if t.uid in live_trees:
                continue
            live_trees[t.uid] = t
            if not t.is_leaf:
                stack.append(t.then)
                stack.append(t.other)
        self._deriv_memo = kept_memo
        self._trees = {
            (t.pred.key, t.then.uid, t.other.uid): t
            for t in live_trees.values() if not t.is_leaf
        }
        self._leaves = {
            frozenset(r.uid for r in t.regexes): t
            for t in live_trees.values() if t.is_leaf
        }
        self._leaves[frozenset()] = self.bottom_leaf
        self._meld_memo = {
            key: tree for key, tree in self._meld_memo.items()
            if key[1] in live_trees and key[2] in live_trees
            and tree.uid in live_trees
        }
        self._restrict_memo = {
            key: tree for key, tree in self._restrict_memo.items()
            if key[0] in live_trees and tree.uid in live_trees
        }
        return before - self.cache_entries()

    # -- consumers ------------------------------------------------------------------

    def apply(self, tree, char):
        """Evaluate the tree at a character: the derivative regex.

        Out-of-domain characters derive to bottom: the in_domain check
        is required here because valid predicates are short-circuited
        to unconditional branches (``.`` derives to an eps leaf with no
        guard to fail), so leaf-walking alone would match them.
        """
        builder = self.builder
        if not self.algebra.in_domain(char):
            return builder.empty
        node = tree
        while not node.is_leaf:
            node = node.then if self.algebra.member(char, node.pred) else node.other
        return builder.union(list(node.regexes))

    def derive_regex(self, regex, char):
        """``D_char(regex)`` via the conditional tree."""
        return self.apply(self.derivative(regex), char)

    def derive_string(self, regex, string):
        """Iterated derivative over a whole string."""
        current = regex
        for char in string:
            current = self.derive_regex(current, char)
        return current

    def successors(self, regex):
        """``Q(delta_dnf(regex))``: all nontrivial leaf alternatives."""
        builder = self.builder
        out = set()
        stack = [self.derivative(regex)]
        seen = set()
        while stack:
            tree = stack.pop()
            if tree.uid in seen:
                continue
            seen.add(tree.uid)
            if tree.is_leaf:
                out.update(
                    r for r in tree.regexes
                    if r is not builder.empty and r is not builder.full
                )
            else:
                stack.append(tree.then)
                stack.append(tree.other)
        return out

    def transitions(self, regex):
        """Enumerate ``(guard, leaf-regex-set)`` pairs: each guard is the
        satisfiable path predicate of one leaf of the derivative tree.

        The guards partition the character space; this is the "local
        minterms for free" view of the conditional tree.
        """
        algebra = self.algebra
        out = []

        def walk(tree, path):
            if tree.is_leaf:
                out.append((path, tree.regexes))
                return
            walk(tree.then, algebra.conj(path, tree.pred))
            walk(tree.other, algebra.conj(path, algebra.neg(tree.pred)))

        walk(self.derivative(regex), algebra.top)
        return out

    def matches(self, regex, string):
        """Full-match decision by iterated derivation (Theorem 4.3)."""
        return self.derive_string(regex, string).nullable
