"""The paper's reference constructions, kept apart from the product path.

The solver, matcher, store and daemon run one derivative, the fused
clean conditional tree of :mod:`repro.derivatives.condtree`.  This
package holds the paper's literal definitions, which the tests and the
experiment index use to check that engine and to reproduce Sections 5
and 7:

* :mod:`repro.reference.transition` — transition regexes (Section 4);
* :mod:`repro.reference.derivative` — the symbolic derivative ``delta``;
* :mod:`repro.reference.nnf`, :mod:`repro.reference.lift`,
  :mod:`repro.reference.dnf` — the normal forms of Sections 4.1 and 5;
* :mod:`repro.reference.sbfa` — symbolic Boolean finite automata
  (Section 7) and the BFA/SAFA correspondences of Section 8;
* :mod:`repro.reference.rules` — the Figure 3 propagation rules, fired
  one at a time over a goal worklist.

No module outside this package imports it (``tests/test_reference_fence.py``).
"""
