"""Extended regular expression abstract syntax (paper, Section 3).

The grammar implemented is::

    ERE ::= phi | epsilon | bottom | ERE . ERE | ERE{lo,hi} | ERE*
          | ERE | ERE  |  ERE & ERE  |  ~ERE

Kleene star is represented as the loop ``R{0,inf}``; bounded loops are
first-class so that ``.{100}``-style repetition derives in O(1) per
step (this matters for the determinization-blowup experiments).

Nodes are immutable and *hash-consed* by :class:`repro.regex.builder.
RegexBuilder`: structurally equal regexes (modulo the similarity rules
of Section 4 — ``&``/``|`` idempotent, associative, commutative;
``~~R = R``; unit and absorbing elements) are the same object.  Node
identity therefore doubles as the similarity-class identity that
Theorem 7.1 relies on for finiteness of the derivative space.
"""

# Node kinds.
EMPTY = "empty"      # bottom: the empty language
EPSILON = "epsilon"  # the language {""}
PRED = "pred"        # a character predicate, a single-character language
CONCAT = "concat"    # concatenation (flattened, >= 2 children)
UNION = "union"      # | (flattened, sorted, >= 2 children)
INTER = "inter"      # & (flattened, sorted, >= 2 children)
COMPL = "compl"      # ~ complement
LOOP = "loop"        # R{lo,hi}; hi None means unbounded; star is {0,None}

# Zero-width assertions (lookarounds).  These are *positional*
# constructs: whether they match at a position depends on the
# surrounding string, not just on the span they cover (which is always
# empty).  Anchors ``^``, ``$``, ``\b`` desugar to them in the parser.
LOOKAHEAD = "lookahead"          # (?=R)
NEG_LOOKAHEAD = "neg_lookahead"  # (?!R)
LOOKBEHIND = "lookbehind"        # (?<=R)
NEG_LOOKBEHIND = "neg_lookbehind"  # (?<!R)

#: All zero-width assertion kinds.
LOOK_KINDS = frozenset(
    (LOOKAHEAD, NEG_LOOKAHEAD, LOOKBEHIND, NEG_LOOKBEHIND)
)

#: Polarity flip, direction preserved: ``not (?=R)`` is ``(?!R)``.
NEGATED_LOOK = {
    LOOKAHEAD: NEG_LOOKAHEAD,
    NEG_LOOKAHEAD: LOOKAHEAD,
    LOOKBEHIND: NEG_LOOKBEHIND,
    NEG_LOOKBEHIND: LOOKBEHIND,
}

#: Direction flip, polarity preserved: under :func:`repro.regex.
#: transform.reverse`, ``(?=R)`` becomes ``(?<=rev R)``.
REVERSED_LOOK = {
    LOOKAHEAD: LOOKBEHIND,
    LOOKBEHIND: LOOKAHEAD,
    NEG_LOOKAHEAD: NEG_LOOKBEHIND,
    NEG_LOOKBEHIND: NEG_LOOKAHEAD,
}

#: Marker for an unbounded loop upper bound.
INF = None

#: The largest tree (in nodes) whose pattern ``repr`` prints.
_REPR_MAX_NODES = 200


class Regex:
    """A hash-consed ERE node.

    Do not construct directly — use :class:`repro.regex.builder.
    RegexBuilder`, which guarantees the canonicalization invariants.
    Equality is identity; ``uid`` gives a stable total order used to
    sort the children of commutative operators.
    """

    __slots__ = (
        "kind", "pred", "children", "lo", "hi", "uid", "nullable", "owner",
        "has_look", "_hash",
    )

    def __init__(self, kind, pred, children, lo, hi, uid, nullable, has_look,
                 owner):
        self.owner = owner
        self.kind = kind
        self.pred = pred
        self.children = children
        self.lo = lo
        self.hi = hi
        self.uid = uid
        self.nullable = nullable
        # positional guard: True iff a lookaround occurs anywhere in
        # the subterm DAG (the builder computes it while interning).
        # Passes that are only sound on classical (non-positional)
        # regexes key their fast path off this flag.
        self.has_look = has_look
        self._hash = hash((kind, uid))

    def __hash__(self):
        return self._hash

    # Identity equality: the builder interns nodes.

    def __repr__(self):
        from repro.regex.printer import to_pattern

        # the pattern is as long as the tree, which sharing can make
        # exponential in the DAG: past a fixed size print a summary
        size = self.size()
        if size > _REPR_MAX_NODES:
            return "Regex<%s #%d, %d nodes>" % (self.kind, self.uid, size)
        try:
            return "Regex(%s)" % to_pattern(self)
        except Exception:  # pragma: no cover - repr must never raise
            return "Regex<%s #%d>" % (self.kind, self.uid)

    # -- structural helpers --------------------------------------------------

    def iter_subterms(self):
        """Yield this node and all subterms, depth-first, pre-order:
        a shared subterm once per occurrence, so the walk is as long as
        the tree, not the DAG."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.children:
                stack.extend(reversed(node.children))

    def predicates(self):
        """The set ``Psi_R`` of character predicates occurring in R."""
        preds = set()

        def collect(node, _):
            if node.kind == PRED:
                preds.add(node.pred)

        fold_postorder(self, collect)
        return preds

    # The counts below are over the tree (a shared subterm counts once
    # per occurrence) but fold the DAG, so sharing costs nothing.

    def pred_count(self):
        """The number of predicate *nodes*, ``#(R)`` from Theorem 7.3."""
        return fold_postorder(
            self, lambda node, kids: (node.kind == PRED) + sum(kids)
        )

    def size(self):
        """Total number of AST nodes."""
        return fold_postorder(self, lambda node, kids: 1 + sum(kids))

    def depth(self):
        """Height of the AST."""
        return fold_postorder(
            self, lambda node, kids: 1 + max(kids, default=0)
        )

    def is_clean(self):
        """Clean in the sense of Theorem 7.3: no ``bottom`` and no
        unsatisfiable predicates anywhere (builders never intern unsat
        predicates as PRED, so checking for EMPTY suffices)."""
        return fold_postorder(
            self, lambda node, kids: node.kind != EMPTY and all(kids)
        )

    def in_b_re(self):
        """True iff the regex is in ``B(RE)``: a Boolean combination of
        standard regexes, i.e. no ``&``/``~`` nested under ``.``/loops."""

        def classify(node, children):
            # (standard, in B(RE)) for each node
            standard = (
                node.kind not in (INTER, COMPL)
                and node.kind not in LOOK_KINDS
                and all(s for s, _ in children)
            )
            if node.kind in (UNION, INTER, COMPL):
                return standard, all(b for _, b in children)
            return standard, standard

        return fold_postorder(self, classify)[1]


# -- iterative bottom-up folds ------------------------------------------------


def fold_postorder(regex, fn):
    """Bottom-up fold over the regex DAG: ``fn(node, child_values)``.

    Iterative (explicit stack) and memoized per shared subterm, so it
    is safe on regexes nested arbitrarily deep — the parser accepts
    patterns tens of thousands of levels deep, and recursive passes
    over its output crash with ``RecursionError`` (or, past the C
    stack, a hard interpreter fault) long before that.  Every pure
    structural pass — printing, serialization, bounds analysis,
    rewriting — should fold through here instead of recursing.
    """
    memo = {}
    stack = [regex]
    while stack:
        node = stack[-1]
        if node.uid in memo:
            stack.pop()
            continue
        pending = [c for c in node.children or () if c.uid not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        memo[node.uid] = fn(
            node, [memo[c.uid] for c in node.children or ()]
        )
    return memo[regex.uid]
