"""Metamorphic identities: single-engine self-consistency checks.

Each identity relates a solver answer on a regex to the answer on a
*transformed* regex that provably has the same (or a determined)
answer.  A violated identity is a bug with no second engine needed:

* **derivative expansion** (Theorem 4.3): ``sat(R)`` iff ``R`` is
  nullable or some satisfiable derivative branch is sat;
* **reversal**: ``L(rev R)`` is the reversed language, so ``sat``
  status, emptiness, and length windows coincide;
* **Boolean laws** on the solver (not just the builder): ``R & ~R``
  is unsat, ``R | ~R`` is universal, and De Morgan duals are
  equivalent;
* **length consistency**: a witness's length lies inside the
  structural ``[min, max]`` bounds of :mod:`repro.analysis.lengths`;
* **atom bound** (Theorem 7.3 on the product engine): for clean
  ``R`` in ``B(RE)``, the derivative states reachable from ``R`` are
  Boolean combinations of at most ``#(R)+3`` atoms.  It needs no
  solver answer, so it runs first.

Returns :class:`Violation` records, shaped like oracle findings so
campaigns treat the two streams uniformly.
"""

from repro.analysis.lengths import (
    NO_MEMBER, UNBOUNDED, structural_max, structural_min,
)
from repro.derivatives.condtree import DerivativeEngine
from repro.regex.ast import COMPL, INF, INTER, LOOP, PRED, UNION, fold_postorder
from repro.regex.transform import reverse
from repro.solver import Budget, RegexSolver


class Violation:
    """A failed identity: ``identity`` names it, ``detail`` explains."""

    __slots__ = ("identity", "detail")

    def __init__(self, identity, detail):
        self.identity = identity
        self.detail = detail

    def to_dict(self):
        return {"identity": self.identity, "detail": self.detail}

    def __repr__(self):
        return "Violation(%s: %s)" % (self.identity, self.detail)


def reachable_atoms(engine, regex):
    """The atoms of ``regex`` and of every state reachable from it
    under :meth:`DerivativeEngine.successors`.

    An atom is a node met by descending through ``|``, ``&`` and ``~``
    and stopping at the first node of any other kind; ⊥ and ``.*`` are
    dropped.  The derivative of a ``|``, ``&`` or ``~`` only recombines
    its operands' leaves, so every state is a Boolean combination of
    these atoms, and they play the part of the Section 7 automaton's
    states in Theorem 7.3.
    """
    builder = engine.builder
    states = {regex}
    frontier = [regex]
    while frontier:
        for target in engine.successors(frontier.pop()):
            if target not in states:
                states.add(target)
                frontier.append(target)
    atoms = set()
    seen = set()
    stack = list(states)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node.kind in (UNION, INTER, COMPL):
            stack.extend(node.children)
        elif node is not builder.empty and node is not builder.full:
            atoms.add(node)
    return atoms


def expanded_pred_count(regex):
    """``#(R)`` of the loop-expanded regex: ``R{l,h}`` counts as ``h``
    copies of ``R``, and ``R{l,}`` as ``l+1`` (``R^l . R*``).  Theorem
    7.3 is stated for the star-only grammar, where this is
    :meth:`Regex.pred_count`; bounded loops are sugar for the copies."""

    def count(node, children):
        if node.kind == PRED:
            return 1
        total = sum(children)
        if node.kind == LOOP:
            total *= (node.lo + 1) if node.hi is INF else max(node.hi, 1)
        return total

    return fold_postorder(regex, count)


def check_identities(builder, regex, solver=None, fuel=200000, seconds=5.0):
    """All identity violations for one regex (empty list = clean).

    Identities are only *checked* when both sides produced concrete
    answers inside the budget; unknowns are skipped, never flagged.
    """
    solver = solver or RegexSolver(builder)
    budget = lambda: Budget(fuel=fuel, seconds=seconds)
    violations = []
    engine = DerivativeEngine(builder)

    # -- atom bound: Theorem 7.3 covers clean B(RE), which has no
    # zero-width assertions
    if regex.in_b_re() and regex.is_clean():
        atoms = len(reachable_atoms(engine, regex))
        bound = expanded_pred_count(regex) + 3
        if atoms > bound:
            violations.append(Violation(
                "atom-bound",
                "%d reachable atoms, above the loop-expanded #(R)+3 = %d"
                % (atoms, bound),
            ))

    def sat_status(r):
        return solver.is_satisfiable(r, budget())

    base = sat_status(regex)
    if base.status not in ("sat", "unsat"):
        return violations

    # -- derivative expansion: sat(R) <=> nullable(R) or some branch sat
    # (skipped for zero-width assertions: the condtree engine has no
    # sound derivative rule for them, by design)
    algebra = builder.algebra
    expanded = None
    if regex.has_look:
        expanded = None
    elif regex.nullable:
        expanded = "sat"
    else:
        expanded = "unsat"
        for guard, leaves in engine.transitions(regex):
            if not algebra.is_sat(guard):
                continue
            branch = sat_status(builder.union(list(leaves)))
            if branch.status == "sat":
                expanded = "sat"
                break
            if branch.status not in ("sat", "unsat"):
                expanded = None  # a branch timed out: inconclusive
                break
    if expanded is not None and expanded != base.status:
        violations.append(Violation(
            "derivative-expansion",
            "sat(R)=%s but nullable/derivative expansion says %s"
            % (base.status, expanded),
        ))

    # -- reversal invariance
    reversed_regex = reverse(builder, regex)
    rev = sat_status(reversed_regex)
    if rev.status in ("sat", "unsat") and rev.status != base.status:
        violations.append(Violation(
            "reverse", "sat(R)=%s but sat(rev R)=%s"
            % (base.status, rev.status),
        ))

    # -- Boolean laws through the solver
    contradiction = sat_status(builder.inter([regex, builder.compl(regex)]))
    if contradiction.status == "sat":
        violations.append(Violation(
            "compl-inter", "R & ~R reported sat (witness %r)"
            % (contradiction.witness,),
        ))
    excluded_middle = sat_status(builder.union([regex, builder.compl(regex)]))
    if excluded_middle.status == "unsat":
        violations.append(Violation(
            "compl-union", "R | ~R reported unsat",
        ))

    # -- De Morgan: ~(R & S) == ~R | ~S with S = rev R (an arbitrary
    # second operand that costs nothing to build)
    other = reversed_regex
    left = builder.compl(builder.inter([regex, other]))
    right = builder.union(
        [builder.compl(regex), builder.compl(other)]
    )
    de_morgan = solver.equivalent(left, right, budget())
    if de_morgan.status == "unsat":
        violations.append(Violation(
            "de-morgan",
            "~(R & S) != ~R | ~S, distinguished by %r"
            % (de_morgan.witness,),
        ))

    # -- length-analysis consistency (structural bounds are undefined
    # for zero-width assertions and refuse them with a typed error)
    if regex.has_look:
        return violations
    low, high = structural_min(regex), structural_max(regex)
    if base.status == "sat":
        if low is NO_MEMBER:
            violations.append(Violation(
                "length-min",
                "sat regex but structural_min reports no member",
            ))
        elif base.witness is not None:
            n = len(base.witness)
            if n < low:
                violations.append(Violation(
                    "length-min",
                    "witness length %d below structural minimum %d"
                    % (n, low),
                ))
            if high is not NO_MEMBER and high is not UNBOUNDED and n > high:
                violations.append(Violation(
                    "length-max",
                    "witness length %d above structural maximum %s"
                    % (n, high),
                ))
    return violations
