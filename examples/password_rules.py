#!/usr/bin/env python3
"""Password policy analysis with the Figure 3 propagation rules.

Reproduces the paper's Section 2 walk-through: the membership
constraint is unfolded rule by rule (der / ite / or / ere / upd / bot),
and the rule-firing counts are printed so the decision procedure's
anatomy is visible.  Then a stack of realistic password rules is
checked for consistency and for redundancy.

Run:  python examples/password_rules.py
"""

from repro import IntervalAlgebra, RegexBuilder, RegexSolver, parse
from repro.reference.rules import PropagationEngine, RuleTrace


def main():
    builder = RegexBuilder(IntervalAlgebra())
    solver = RegexSolver(builder)
    rules = PropagationEngine(solver)

    # -- Section 2's running example, rule by rule -----------------------
    constraint = parse(builder, r"(.*\d.*)&~(.*01.*)")
    trace = RuleTrace()
    result = rules.solve(constraint, trace=trace)
    print("Section 2 constraint:", result.status,
          "witness=%r" % result.witness)
    print("rule firings:", dict(sorted(trace.counts.items())))

    # -- a realistic rule stack -------------------------------------------
    rule_stack = {
        "length 10..64": r".{10,64}",
        "has digit": r".*\d.*",
        "has lowercase": r".*[a-z].*",
        "has uppercase": r".*[A-Z].*",
        "has special": r".*[!@#$%&*].*",
        "no '01' sequence": r"~(.*01.*)",
        "no char tripled": r"~(.*(aaa|bbb|ccc|000|111).*)",
        "no 'password'": r"~(.*password.*)",
    }
    combined = builder.inter(
        [parse(builder, p) for p in rule_stack.values()]
    )
    result = solver.is_satisfiable(combined)
    print("\ncombined policy (%d rules): %s" % (len(rule_stack), result.status))
    print("a compliant password:", repr(result.witness))
    print("derivative graph:", result.stats["vertices"], "states,",
          result.stats["edges"], "edges")

    # -- consistency audit: does any rule contradict the rest? -------------
    print("\nredundancy audit (is each rule implied by the others?):")
    names = list(rule_stack)
    for name in names:
        others = builder.inter([
            parse(builder, p) for other, p in rule_stack.items()
            if other != name
        ])
        this_rule = parse(builder, rule_stack[name])
        implied = solver.contains(others, this_rule)
        verdict = "REDUNDANT" if implied.is_sat else "independent"
        print("  %-22s %s" % (name, verdict))

    # -- a contradictory stack is caught with a proof ------------------------
    contradictory = builder.inter([
        combined, parse(builder, r"[a-z]*")  # lowercase-only, but digits required
    ])
    print("\nadding 'lowercase only':",
          solver.is_satisfiable(contradictory).status)


if __name__ == "__main__":
    main()
