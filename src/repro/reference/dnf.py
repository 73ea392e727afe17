"""Disjunctive normal form of transition regexes (paper, Sections 4–5).

A transition regex is in DNF when it is a disjunction of conditional
regexes whose leaves are all plain EREs — union and if-then-else pushed
outwards over complement and intersection.  The decision procedure
requires its derivatives in this form (``delta_dnf``) so that the
``ite``/``or``/``ere`` propagation rules of Figure 3 apply directly and
no (incomplete) propagation rules for ``&``/``~`` are needed.
"""

from repro.reference.derivative import derivative
from repro.reference.lift import lift
from repro.reference.nnf import nnf
from repro.reference.transition import (
    TRCond, TRInter, TRLeaf, TRUnion, nontrivial_terminals,
)


def dnf(builder, tr):
    """Normalize an arbitrary transition regex into DNF."""
    return lift(builder, nnf(builder, tr))


def delta_dnf(builder, regex):
    """``delta_dnf(R)``: the symbolic derivative of ``R`` in DNF."""
    return dnf(builder, derivative(builder, regex))


def is_dnf(tr):
    """Check the DNF shape: disjunctions of conditionals over leaves,
    with no intersection or complement above the leaf level."""
    if isinstance(tr, TRUnion):
        return all(is_dnf(c) for c in tr.children)
    return _is_conditional_regex(tr)


def _is_conditional_regex(tr):
    if isinstance(tr, TRLeaf):
        return True
    if isinstance(tr, TRCond):
        return _is_conditional_over_leaves(tr)
    return False


def _is_conditional_over_leaves(tr):
    if isinstance(tr, TRLeaf):
        return True
    if isinstance(tr, TRCond):
        return _is_conditional_over_leaves(tr.then) and _is_conditional_over_leaves(
            tr.other
        )
    if isinstance(tr, TRUnion):
        # unions of leaves below a conditional are a union regex in
        # disguise; we accept them (the solver folds them on demand)
        return all(_is_conditional_over_leaves(c) for c in tr.children)
    return False


def successors(builder, regex):
    """``Q(delta_dnf(R))``: the nontrivial leaves of the DNF derivative.

    These are exactly the vertices the solver graph adds as targets of
    ``R`` (Figure 3b, the ``upd`` rule).
    """
    return nontrivial_terminals(builder, delta_dnf(builder, regex))
