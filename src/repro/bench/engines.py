"""The engine line-up for the Figure 4 comparison.

Each entry corresponds to an algorithm family from the paper's
evaluation (we reimplement the algorithms, not the binaries — see
DESIGN.md):

========================  ============================================
Engine                     Stands for
========================  ============================================
``sbd``                    dZ3: symbolic Boolean derivatives (ours)
``eager-sfa``              legacy Z3: eager symbolic-automata Boolean
                           operations
``eager-dfa``              DFA-pipeline solvers: as above but always
                           determinizing
``antimirov-pd``           CVC4-style: partial derivatives, product
                           rule for intersection, no complement
``brzozowski-minterm``     classical finitization: global
                           mintermization + Brzozowski derivatives
========================  ============================================
"""

from repro.bench.harness import Engine
from repro.solver.baselines import (
    AntimirovSolver, EagerAutomataSolver, MintermSolver,
)
from repro.solver.engine import RegexSolver


def default_engines(max_states=20000, max_minterms=2048):
    """The five-engine line-up used by the benchmark suite."""
    return [
        Engine("sbd", lambda b: RegexSolver(b)),
        Engine("eager-sfa", lambda b: EagerAutomataSolver(b, max_states)),
        Engine(
            "eager-dfa",
            lambda b: EagerAutomataSolver(b, max_states, determinize_all=True),
        ),
        Engine("antimirov-pd", lambda b: AntimirovSolver(b)),
        Engine(
            "brzozowski-minterm", lambda b: MintermSolver(b, max_minterms)
        ),
    ]


def reference_engine():
    return Engine("sbd", lambda b: RegexSolver(b))


def engine_by_name(name, max_states=20000, max_minterms=2048):
    """Resolve one engine of the default line-up by name.

    For callers that hold an engine's name rather than the
    :class:`Engine` itself (which wraps a closure).
    """
    for engine in default_engines(max_states, max_minterms):
        if engine.name == name:
            return engine
    raise KeyError(
        "unknown engine %r (expected one of: %s)"
        % (name, ", ".join(e.name for e in default_engines()))
    )
