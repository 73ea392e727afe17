"""Transition regexes ``TR`` (paper, Section 4).

A transition regex denotes a function from characters to regexes::

    TR ::= Q | if(phi, TR, TR) | TR "|" TR | TR "&" TR | ~TR

where ``Q`` is the leaf type (``ERE`` here; Section 7 instantiates the
same grammar with automaton states).  The crucial operations are:

* :func:`apply` — evaluate ``tau(a)`` for a concrete character;
* :func:`tr_concat` — the lifting of regex concatenation to
  ``tau . R`` used by the derivative of concatenations and loops;
* :func:`negate` — the paper's overline operation, the *dual* of a
  transition regex, which eliminates a top-level ``~`` (Lemma 4.2:
  ``~tau == negate(tau)``).

This module implements the calculus literally for study and testing;
the solver uses the fused, clean form in
:mod:`repro.derivatives.condtree`.
"""


class TRLeaf:
    """A leaf: the constant function returning ``regex``.

    The leaf payload is normally an ERE, but Section 7 instantiates the
    same grammar with automaton states, so any hashable value works.
    """

    __slots__ = ("regex",)

    def __init__(self, regex):
        self.regex = regex

    def __eq__(self, other):
        return isinstance(other, TRLeaf) and self.regex == other.regex

    def __hash__(self):
        return hash(("leaf", self.regex))

    def __repr__(self):
        return "TRLeaf(%r)" % self.regex


class TRCond:
    """A conditional regex ``if(phi, then, other)``."""

    __slots__ = ("pred", "then", "other")

    def __init__(self, pred, then, other):
        self.pred = pred
        self.then = then
        self.other = other

    def __eq__(self, other):
        return (
            isinstance(other, TRCond)
            and self.pred == other.pred
            and self.then == other.then
            and self.other == other.other
        )

    def __hash__(self):
        return hash(("cond", self.pred, self.then, self.other))

    def __repr__(self):
        return "TRCond(%r, %r, %r)" % (self.pred, self.then, self.other)


class TRUnion:
    """Disjunction of transition regexes."""

    __slots__ = ("children",)

    def __init__(self, children):
        self.children = tuple(children)

    def __eq__(self, other):
        return isinstance(other, TRUnion) and self.children == other.children

    def __hash__(self):
        return hash(("union", self.children))

    def __repr__(self):
        return "TRUnion(%r)" % (self.children,)


class TRInter:
    """Conjunction of transition regexes."""

    __slots__ = ("children",)

    def __init__(self, children):
        self.children = tuple(children)

    def __eq__(self, other):
        return isinstance(other, TRInter) and self.children == other.children

    def __hash__(self):
        return hash(("inter", self.children))

    def __repr__(self):
        return "TRInter(%r)" % (self.children,)


class TRCompl:
    """Complement of a transition regex."""

    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child

    def __eq__(self, other):
        return isinstance(other, TRCompl) and self.child == other.child

    def __hash__(self):
        return hash(("compl", self.child))

    def __repr__(self):
        return "TRCompl(%r)" % (self.child,)


def apply(builder, tr, char):
    """Evaluate the denoted function: ``tr(char)`` as a regex.

    Out-of-domain characters evaluate to bottom (checked up front:
    negated subtrees would otherwise wrongly admit them).
    """
    algebra = builder.algebra
    if not algebra.in_domain(char):
        return builder.empty
    if isinstance(tr, TRLeaf):
        return tr.regex
    if isinstance(tr, TRCond):
        branch = tr.then if algebra.member(char, tr.pred) else tr.other
        return apply(builder, branch, char)
    if isinstance(tr, TRUnion):
        return builder.union([apply(builder, c, char) for c in tr.children])
    if isinstance(tr, TRInter):
        return builder.inter([apply(builder, c, char) for c in tr.children])
    if isinstance(tr, TRCompl):
        return builder.compl(apply(builder, tr.child, char))
    raise TypeError("not a transition regex: %r" % (tr,))


def negate(builder, tr):
    """The paper's overline: the dual transition regex.

    ``negate(tau)(a) == ~(tau(a))`` for every character (Lemma 4.2),
    but the result has no top-level complement node.
    """
    if isinstance(tr, TRLeaf):
        return TRLeaf(builder.compl(tr.regex))
    if isinstance(tr, TRCond):
        return TRCond(tr.pred, negate(builder, tr.then), negate(builder, tr.other))
    if isinstance(tr, TRUnion):
        return TRInter(tuple(negate(builder, c) for c in tr.children))
    if isinstance(tr, TRInter):
        return TRUnion(tuple(negate(builder, c) for c in tr.children))
    if isinstance(tr, TRCompl):
        return tr.child
    raise TypeError("not a transition regex: %r" % (tr,))


def tr_concat(builder, tr, regex):
    """Concatenation lifted to transition regexes: ``tau . R``.

    Follows the four rules of Section 4; the intersection case routes
    through :func:`repro.reference.lift.lift` to reach conditional
    form first.
    """
    if regex is builder.epsilon:
        return tr
    if isinstance(tr, TRLeaf):
        return TRLeaf(builder.concat([tr.regex, regex]))
    if isinstance(tr, TRCond):
        return TRCond(
            tr.pred,
            tr_concat(builder, tr.then, regex),
            tr_concat(builder, tr.other, regex),
        )
    if isinstance(tr, TRUnion):
        return TRUnion(tuple(tr_concat(builder, c, regex) for c in tr.children))
    if isinstance(tr, TRCompl):
        return tr_concat(builder, negate(builder, tr.child), regex)
    if isinstance(tr, TRInter):
        from repro.reference.lift import lift
        from repro.reference.nnf import nnf

        return tr_concat(builder, lift(builder, nnf(builder, tr)), regex)
    raise TypeError("not a transition regex: %r" % (tr,))


def terminals(tr):
    """All leaf regexes of ``tr`` (the paper's *terminals*)."""
    out = []
    stack = [tr]
    while stack:
        node = stack.pop()
        if isinstance(node, TRLeaf):
            out.append(node.regex)
        elif isinstance(node, TRCond):
            stack.append(node.then)
            stack.append(node.other)
        elif isinstance(node, (TRUnion, TRInter)):
            stack.extend(node.children)
        elif isinstance(node, TRCompl):
            stack.append(node.child)
        else:
            raise TypeError("not a transition regex: %r" % (node,))
    return out


def nontrivial_terminals(builder, tr):
    """``Q(tau)``: terminals except the trivial ``bottom`` and ``.*``."""
    return {
        r for r in terminals(tr) if r is not builder.empty and r is not builder.full
    }

