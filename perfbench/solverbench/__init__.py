"""The solver benchmark: three workloads, one command.

``smt_cold``
    the paper's suites as SMT-LIB text, each problem solved on a fresh
    solver stack (what one ``repro solve FILE`` pays);
``zipf_store``
    a zipfian pattern stream, each query on a fresh stack against a
    warm-store snapshot prewarmed in setup;
``serve_closed``
    an in-process daemon on a Unix socket driven by closed-loop clients.

The program is driven only through its public entry points; the traced
run wraps them with span recorders that live in this package
(:mod:`solverbench.spans`), so nothing under ``src/`` changes.  Times
are scaled to a reference host speed (:mod:`solverbench.calibrate`).  See
``perfbench/LAYERS.md`` for what each metric measures.
"""
