"""The paper's reference constructions, kept apart from the product path.

The solver, matcher, store and daemon run one derivative, the fused
clean conditional tree of :mod:`repro.derivatives.condtree`.  This
package holds the paper's literal definitions, which the tests and the
experiment index compare that engine and the solver against:

* :mod:`repro.reference.transition` — transition regexes (Section 4);
* :mod:`repro.reference.derivative` — the symbolic derivative ``delta``;
* :mod:`repro.reference.nnf`, :mod:`repro.reference.lift`,
  :mod:`repro.reference.dnf` — the normal forms of Sections 4.1 and 5;
  the Theorem 4.3 tests and the fused-vs-literal ablation run them;
* :mod:`repro.reference.rules` — the Figure 3 propagation rules, fired
  one at a time over a goal worklist; the Theorem 5.2 cross-check
  compares the solver's verdicts against them.

No module outside this package imports it (``tests/test_reference_fence.py``).
"""
