"""Negation normal form of transition regexes (paper, Section 4.1).

``nnf`` pushes complements down through conditionals (branches of a
conditional partition the character space, so negation commutes with
the conditional — this is the correctness content of Lemma 4.2) and
through ``&``/``|`` by De Morgan, until every residual complement sits
directly on an ERE leaf, where it is absorbed by the regex builder's
``~`` constructor.
"""

from repro.reference.transition import (
    TRCompl, TRCond, TRInter, TRLeaf, TRUnion,
)


def nnf(builder, tr):
    """Rewrite ``tr`` so no ``TRCompl`` node remains."""
    if isinstance(tr, TRLeaf):
        return tr
    if isinstance(tr, TRCond):
        return TRCond(tr.pred, nnf(builder, tr.then), nnf(builder, tr.other))
    if isinstance(tr, TRUnion):
        return TRUnion(tuple(nnf(builder, c) for c in tr.children))
    if isinstance(tr, TRInter):
        return TRInter(tuple(nnf(builder, c) for c in tr.children))
    if isinstance(tr, TRCompl):
        return _nnf_neg(builder, tr.child)
    raise TypeError("not a transition regex: %r" % (tr,))


def _nnf_neg(builder, tr):
    """NNF of ``~tr``."""
    if isinstance(tr, TRLeaf):
        return TRLeaf(builder.compl(tr.regex))
    if isinstance(tr, TRCond):
        # NNF(~if(phi, t, f)) = if(phi, NNF(~t), NNF(~f))
        return TRCond(tr.pred, _nnf_neg(builder, tr.then), _nnf_neg(builder, tr.other))
    if isinstance(tr, TRUnion):
        return TRInter(tuple(_nnf_neg(builder, c) for c in tr.children))
    if isinstance(tr, TRInter):
        return TRUnion(tuple(_nnf_neg(builder, c) for c in tr.children))
    if isinstance(tr, TRCompl):
        return nnf(builder, tr.child)
    raise TypeError("not a transition regex: %r" % (tr,))


def is_nnf(tr):
    """True iff ``tr`` contains no ``TRCompl`` node."""
    stack = [tr]
    while stack:
        node = stack.pop()
        if isinstance(node, TRCompl):
            return False
        if isinstance(node, TRCond):
            stack.append(node.then)
            stack.append(node.other)
        elif isinstance(node, (TRUnion, TRInter)):
            stack.extend(node.children)
    return True
