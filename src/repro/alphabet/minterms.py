"""Minterm generation (paper, Section 3 and Section 8.3).

Given a finite set ``S`` of predicates, a *minterm* is a satisfiable
conjunction choosing, for each predicate in ``S``, either it or its
negation.  The satisfiable minterms partition the domain; there are at
most ``2**|S|`` of them — the blowup that global mintermization-based
approaches pay up front and that symbolic derivatives avoid.

The implementation refines a partition incrementally instead of
enumerating all ``2**|S|`` sign vectors, so it is linear in the number
of *satisfiable* minterms per refinement step.
"""


def minterms(algebra, predicates):
    """Return a list of pairwise-disjoint satisfiable predicates that
    partition the domain and refine every predicate in ``predicates``.

    Every input predicate is a union of returned minterms, and distinct
    returned minterms are disjoint.  The top predicate is returned for
    an empty input.
    """
    parts = [algebra.top]
    for phi in predicates:
        refined = []
        for part in parts:
            inside = algebra.conj(part, phi)
            outside = algebra.diff(part, phi)
            if algebra.is_sat(inside):
                refined.append(inside)
            if algebra.is_sat(outside):
                refined.append(outside)
        parts = refined
    return parts


def partition_check(algebra, parts):
    """True iff ``parts`` are pairwise disjoint and cover the domain.

    Used by tests and by the classical automata code to validate local
    mintermization before building deterministic transitions.
    """
    union = algebra.bot
    for i, part in enumerate(parts):
        if not algebra.is_sat(part):
            return False
        for other in parts[i + 1:]:
            if algebra.is_sat(algebra.conj(part, other)):
                return False
        union = algebra.disj(union, part)
    return algebra.is_valid(union)
