"""Counters, in-place readers, registry scoping, and the null backend."""

from repro.obs import Counter, MetricsRegistry, NULL_COUNTER, NULL_METRICS


def test_counter_inc():
    c = Counter("c")
    c.inc()
    c.inc(41)
    assert c.value == 42


def test_registry_get_or_create_is_idempotent():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert reg.scope("a") is reg.scope("a")


def test_registry_scopes_flatten_with_dotted_names():
    reg = MetricsRegistry()
    reg.counter("top").inc()
    reg.scope("solver").counter("explored").inc(3)
    reg.scope("solver").scope("inner").counter("depth").inc(2)
    snap = reg.snapshot()
    assert snap == {"top": 1, "solver.explored": 3, "solver.inner.depth": 2}


def test_null_backend_is_inert_and_shared():
    assert NULL_METRICS.enabled is False
    assert NULL_METRICS.counter("anything") is NULL_COUNTER
    assert NULL_METRICS.scope("deep").scope("deeper") is NULL_METRICS
    NULL_COUNTER.inc(100)
    assert NULL_COUNTER.value == 0
    assert NULL_METRICS.snapshot() == {}


def test_read_from_reads_in_place_and_holds_the_reader_weakly():
    """A scope's reader is read at every snapshot, and never keeps the
    layer that registered it alive: a discarded solver stack is freed
    by reference counting alone, without the cyclic collector."""
    import gc
    import weakref

    from repro.alphabet import IntervalAlgebra
    from repro.regex import RegexBuilder, parse
    from repro.solver import RegexSolver

    builder = RegexBuilder(IntervalAlgebra(127))
    solver = RegexSolver(builder)
    metrics = solver.obs.metrics
    solver.is_satisfiable(parse(builder, "(a|b)*abb"))
    explored = metrics.snapshot()["solver.explored"]
    assert explored == solver._explored_n > 0
    assert metrics.snapshot()["solver.queries"] == 1
    assert metrics.snapshot()["cache.entries_total"] == (
        solver.state.cache_sizes()["entries_total"]
    )
    probes = [weakref.ref(layer) for layer in
              (solver, solver.engine, solver.graph, solver.state)]
    gc.disable()
    try:
        del solver
        assert [probe() for probe in probes] == [None] * len(probes)
    finally:
        gc.enable()
    # the solver's own counts leave with it; the registry keeps no copy
    snapshot = metrics.snapshot()
    assert "solver.explored" not in snapshot
    assert "solver.queries" not in snapshot
