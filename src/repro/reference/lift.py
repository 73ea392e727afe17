"""The lift rules (paper, Section 4.1).

``lift`` transforms an NNF transition regex into an equivalent one in
which conditionals sit at the top and intersections have been pushed
into the ERE leaves.  The branch condition ``psi`` (initially the top
predicate) records the conjunction of guards on the current path; it is
kept satisfiable throughout, so dead branches are eliminated on the fly
and the resulting transition regex is *clean* — in every conditional
both branches are reachable.
"""

from repro.reference.transition import (
    TRCond, TRInter, TRLeaf, TRUnion,
)
from repro.reference.nnf import is_nnf


def lift(builder, tr):
    """Lift conditionals to the top of an NNF transition regex."""
    if not is_nnf(tr):
        raise ValueError("lift expects an NNF transition regex")
    return _lift(builder, tr, builder.algebra.top)


def _lift(builder, tr, psi):
    algebra = builder.algebra
    if not algebra.is_sat(psi):
        return TRLeaf(builder.empty)
    if isinstance(tr, TRLeaf):
        # lift_psi(R) = R when psi is top, else if(psi, R, bot); we keep
        # the plain leaf in both cases because the caller has already
        # committed to the branch — guarding again is sound but noisy.
        return tr
    if isinstance(tr, TRCond):
        then_psi = algebra.conj(psi, tr.pred)
        else_psi = algebra.conj(psi, algebra.neg(tr.pred))
        if not algebra.is_sat(then_psi):
            return _lift(builder, tr.other, psi)
        if not algebra.is_sat(else_psi):
            return _lift(builder, tr.then, psi)
        return TRCond(
            tr.pred,
            _lift(builder, tr.then, then_psi),
            _lift(builder, tr.other, else_psi),
        )
    if isinstance(tr, TRUnion):
        return TRUnion(tuple(_lift(builder, c, psi) for c in tr.children))
    if isinstance(tr, TRInter):
        return _lift_inter(builder, list(tr.children), psi)
    raise TypeError("unexpected node in NNF transition regex: %r" % (tr,))


def _lift_inter(builder, conjuncts, psi):
    """Lift an intersection of NNF transition regexes."""
    algebra = builder.algebra
    if not algebra.is_sat(psi):
        return TRLeaf(builder.empty)
    # flatten nested intersections first
    flat = []
    for c in conjuncts:
        if isinstance(c, TRInter):
            flat.extend(c.children)
        else:
            flat.append(c)
    # lift_psi((t1 | t2) & rho) = lift_psi(t1 & rho) | lift_psi(t2 & rho)
    for i, c in enumerate(flat):
        if isinstance(c, TRUnion):
            rest = flat[:i] + flat[i + 1:]
            return TRUnion(
                tuple(_lift_inter(builder, rest + [alt], psi) for alt in c.children)
            )
    # lift_psi(if(phi,t,f) & rho) = lift_psi(if(phi, t & rho, f & rho))
    for i, c in enumerate(flat):
        if isinstance(c, TRCond):
            rest = flat[:i] + flat[i + 1:]
            then_psi = algebra.conj(psi, c.pred)
            else_psi = algebra.conj(psi, algebra.neg(c.pred))
            if not algebra.is_sat(then_psi):
                return _lift_inter(builder, rest + [c.other], psi)
            if not algebra.is_sat(else_psi):
                return _lift_inter(builder, rest + [c.then], psi)
            return TRCond(
                c.pred,
                _lift_inter(builder, rest + [c.then], then_psi),
                _lift_inter(builder, rest + [c.other], else_psi),
            )
    # all conjuncts are leaves: push the intersection into the regex
    return TRLeaf(builder.inter([c.regex for c in flat]))
