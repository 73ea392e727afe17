"""Symbolic Boolean derivatives: the paper's core contribution.

* :mod:`repro.derivatives.condtree` — the fused clean-conditional-tree
  engine (Sections 4–5): the one derivative the solver, matcher, store
  and daemon run;
* :mod:`repro.derivatives.brzozowski`, :mod:`repro.derivatives.antimirov`
  — the classical theories compared against in Section 8, backing the
  baseline solvers.

The paper's literal calculus (transition regexes, ``delta``, NNF, lift,
DNF) lives in :mod:`repro.reference`, off the product path; the tests
check this engine pointwise against it (Theorem 4.3).
"""

from repro.derivatives.condtree import DerivativeEngine, Leaf, Node
from repro.derivatives import antimirov, brzozowski

__all__ = ["DerivativeEngine", "Leaf", "Node", "antimirov", "brzozowski"]
