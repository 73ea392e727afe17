"""A 2x slowdown of the derivative layer must be seen where it runs and
not where it does not.

Doubling ``DerivativeEngine.transitions`` must move ``smt_cold``
``latency_p99_ms`` past its bound in ``BENCHMARK.json``, and must move
``serve_closed`` ``latency_p50_ms`` by less than its bound: there the
daemon's dispatch and poll loop, not the solver, set the median.

Normal and slowed ``smt_cold`` passes alternate, so both sides see the
same host, whose speed can swing by a third for seconds at a time.
"""

import json
import os
import time
from contextlib import contextmanager

from repro.derivatives.condtree import DerivativeEngine

from solverbench.workloads import (
    Entry, ServeClosed, SmtCold, Window, e2e_metrics,
)

SEED = 11
SECONDS = 6.0
#: Normal/slowed pass pairs of smt_cold.
PASS_PAIRS = 5

_BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__)))), "BENCHMARK.json",
)


def _bound(metric):
    with open(_BENCHMARK, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}[metric]


@contextmanager
def doubled_transitions():
    """Every ``transitions`` call takes twice as long (busy-waiting for
    as long as the real call took)."""
    original = DerivativeEngine.__dict__["transitions"]

    def slowed(self, regex):
        started = time.perf_counter()
        rows = original(self, regex)
        until = 2.0 * time.perf_counter() - started
        while time.perf_counter() < until:
            pass
        return rows

    DerivativeEngine.transitions = slowed
    try:
        yield
    finally:
        DerivativeEngine.transitions = original


def _metric(window, name):
    return e2e_metrics(window, [0.0], [])[name][0]


def _serve_p50_ms():
    """serve_closed's median on a fresh daemon; its workers fork inside
    set-up, so they inherit whatever ``transitions`` is at that time."""
    workload = ServeClosed(SEED)
    try:
        workload.setup()
        window = workload.measure(SECONDS, Entry())
    finally:
        workload.close()
    assert window.failed == 0
    return _metric(window, "latency_p50_ms")


def smt_cold_p99_move():
    """The relative move of smt_cold's p99 under doubled transitions."""
    workload = SmtCold(SEED)
    workload.setup()
    base, slow = Window(), Window()
    for _ in range(PASS_PAIRS):
        workload.measure(0.0, Entry(), base)
        with doubled_transitions():
            workload.measure(0.0, Entry(), slow)
    assert base.failed == 0 and slow.failed == 0
    p99 = "latency_p99_ms"
    return _metric(slow, p99) / _metric(base, p99) - 1.0


def test_doubled_transitions_moves_smt_cold_p99():
    assert smt_cold_p99_move() > _bound("latency_p99_ms")


def test_doubled_transitions_leaves_serve_closed_p50():
    base = _serve_p50_ms()
    with doubled_transitions():
        slow = _serve_p50_ms()
    assert abs(slow / base - 1.0) < _bound("latency_p50_ms")
