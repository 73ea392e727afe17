"""Counter/gauge/histogram math, registry scoping, and the null backend."""

import pytest

from repro.obs import (
    Counter, Gauge, Histogram, MetricsRegistry,
    NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM, NULL_METRICS,
)


def test_counter_inc_and_reset():
    c = Counter("c")
    c.inc()
    c.inc(41)
    assert c.value == 42
    c.reset()
    assert c.value == 0


def test_gauge_set_inc_dec():
    g = Gauge("g")
    g.set(10)
    g.inc(5)
    g.dec(3)
    assert g.value == 12
    g.reset()
    assert g.value == 0


def test_histogram_summary_stats():
    h = Histogram("h")
    for value in (1, 2, 3, 4, 100):
        h.observe(value)
    assert h.count == 5
    assert h.total == 110
    assert h.min == 1
    assert h.max == 100
    assert h.mean == pytest.approx(22.0)


def test_histogram_log_buckets():
    h = Histogram("h")
    # bucket e holds 2**(e-1) < x <= 2**e; bucket 0 holds zeros and
    # sub-unit samples
    h.observe(0)
    h.observe(0.5)
    h.observe(1)      # bucket 1 (frexp(1) -> (0.5, 1))
    h.observe(2)      # bucket 2
    h.observe(3)      # bucket 2
    h.observe(4)      # bucket 3
    h.observe(1000)   # bucket 10
    assert h.buckets == {0: 2, 1: 1, 2: 2, 3: 1, 10: 1}


def test_histogram_quantile_upper_bound():
    h = Histogram("h")
    for value in (1, 1, 1, 1, 1000):
        h.observe(value)
    assert h.quantile(0.5) == 2        # median bucket upper bound
    assert h.quantile(1.0) == 2 ** 10  # 1000 lands in bucket 10
    assert Histogram("empty").quantile(0.5) is None


def test_histogram_quantile_empty_is_none_for_every_q():
    h = Histogram("empty")
    assert h.quantile(0.0) is None
    assert h.quantile(0.5) is None
    assert h.quantile(1.0) is None


def test_histogram_quantile_q0_and_q1_bracket_the_buckets():
    h = Histogram("h")
    for value in (3, 40, 500):  # buckets 2, 6, 9
        h.observe(value)
    # q=0 has rank 0: the first bucket already satisfies seen >= 0
    assert h.quantile(0.0) == 2 ** 2
    # q=1 needs every sample: the last bucket's upper bound
    assert h.quantile(1.0) == 2 ** 9


def test_histogram_quantile_single_observation():
    h = Histogram("h")
    h.observe(5)  # bucket 3: 4 < 5 <= 8
    for q in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert h.quantile(q) == 2 ** 3


def test_histogram_quantile_zero_only_samples():
    h = Histogram("h")
    h.observe(0)
    h.observe(0)
    assert h.quantile(0.5) == 1  # bucket 0's upper bound is 2**0
    assert h.quantile(1.0) == 1


def test_histogram_snapshot_and_reset():
    h = Histogram("h")
    h.observe(7)
    snap = h.snapshot()
    assert snap["count"] == 1 and snap["total"] == 7
    assert snap["min"] == snap["max"] == 7
    h.reset()
    assert h.count == 0 and h.buckets == {}


def test_registry_get_or_create_is_idempotent():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert reg.scope("a") is reg.scope("a")


def test_registry_rejects_type_confusion():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_registry_scopes_flatten_with_dotted_names():
    reg = MetricsRegistry()
    reg.counter("top").inc()
    reg.scope("solver").counter("explored").inc(3)
    reg.scope("solver").scope("inner").gauge("depth").set(2)
    reg.scope("deriv").histogram("sizes").observe(4)
    snap = reg.snapshot()
    assert snap["top"] == 1
    assert snap["solver.explored"] == 3
    assert snap["solver.inner.depth"] == 2
    assert snap["deriv.sizes"]["count"] == 1


def test_registry_reset_recurses():
    reg = MetricsRegistry()
    c = reg.scope("a").counter("n")
    c.inc(5)
    reg.reset()
    assert c.value == 0


def test_registry_snapshot_after_reset_keeps_structure():
    """Reset zeroes values but keeps every registered name visible, so
    a post-reset snapshot still enumerates the metric tree."""
    reg = MetricsRegistry()
    reg.counter("top").inc(2)
    reg.scope("solver").counter("explored").inc(7)
    reg.scope("solver").gauge("depth").set(4)
    reg.scope("deriv").histogram("sizes").observe(9)
    reg.reset()
    snap = reg.snapshot()
    assert snap["top"] == 0
    assert snap["solver.explored"] == 0
    assert snap["solver.depth"] == 0
    assert snap["deriv.sizes"] == {
        "count": 0, "total": 0, "min": None, "max": None, "mean": 0.0,
        "buckets": {},
    }
    # instruments handed out before the reset are still live
    reg.scope("solver").counter("explored").inc()
    assert reg.snapshot()["solver.explored"] == 1


def test_null_backend_is_inert_and_shared():
    assert NULL_METRICS.enabled is False
    assert NULL_METRICS.counter("anything") is NULL_COUNTER
    assert NULL_METRICS.gauge("g") is NULL_GAUGE
    assert NULL_METRICS.histogram("h") is NULL_HISTOGRAM
    assert NULL_METRICS.scope("deep").scope("deeper") is NULL_METRICS
    NULL_COUNTER.inc(100)
    NULL_GAUGE.set(100)
    NULL_HISTOGRAM.observe(100)
    assert NULL_COUNTER.value == 0
    assert NULL_GAUGE.value == 0
    assert NULL_HISTOGRAM.count == 0
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
    snapshot = metrics.snapshot()
    assert "solver.explored" not in snapshot
    assert snapshot["solver.queries"] == 1
