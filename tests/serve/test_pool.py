"""The worker pool: ordering, verdict parity, crash and hang isolation.

These tests spawn real worker processes; budgets are kept small so the
whole module stays fast even on a single-core machine.
"""

import pytest

from repro.alphabet import IntervalAlgebra
from repro.regex import RegexBuilder, parse
from repro.serve import Job, solve_batch
from repro.solver.engine import RegexSolver
from repro.solver.result import Budget

PATTERNS = [
    ("disj", "a|b"),
    ("empty-isect", "a&b"),
    ("deep", "(" * 600 + "a" + ")" * 600),
    ("loop", "(ab){2,4}c"),
    ("compl", "~(a*)"),
    ("bad-syntax", "(unclosed"),
]

BUDGET = {"fuel": 100000, "seconds": 5.0}


def serial_verdicts():
    builder = RegexBuilder(IntervalAlgebra())
    solver = RegexSolver(builder)
    out = {}
    for name, pattern in PATTERNS:
        try:
            regex = parse(builder, pattern)
        except Exception as exc:
            out[name] = ("error", type(exc).__name__)
            continue
        result = solver.is_satisfiable(regex, Budget(**BUDGET))
        out[name] = (result.status, None)
    return out


def test_batch_matches_serial_and_preserves_order():
    jobs = [Job(name, "pattern", pattern) for name, pattern in PATTERNS]
    report = solve_batch(jobs, workers=2, **BUDGET)
    assert [r.name for r in report.results] == [n for n, _ in PATTERNS]
    expected = serial_verdicts()
    for result in report.results:
        status, error_type = expected[result.name]
        assert result.status == status, result
        if error_type is not None:
            assert result.error["type"] == error_type
    assert report.counts["error"] == 1  # only the syntax error


def test_smt2_jobs_honor_expected_status(tmp_path):
    text = (
        "(set-logic QF_S)\n(declare-const x String)\n"
        '(assert (str.in_re x (re.+ (str.to_re "ab"))))\n(check-sat)\n'
    )
    (tmp_path / "p.smt2").write_text(text)
    from repro.serve import load_jobs

    report = solve_batch(load_jobs(str(tmp_path)), workers=1, **BUDGET)
    assert report.results[0].status == "sat"
    assert report.results[0].model == {"x": "ab"}


def test_killed_worker_yields_error_record_and_batch_completes():
    jobs = [
        Job("before", "pattern", "a"),
        Job("boom", "crash", "kill"),
        Job("after", "pattern", "b"),
    ]
    report = solve_batch(jobs, workers=2, retries=0, **BUDGET)
    statuses = {r.name: r.status for r in report.results}
    assert statuses == {"before": "sat", "boom": "error", "after": "sat"}
    boom = report.results[1]
    assert boom.error["type"] == "WorkerCrashed"
    assert "exited" in boom.error["message"]


def test_crash_retry_budget_is_bounded():
    report = solve_batch([Job("boom", "crash", "kill")], workers=1,
                         retries=2, **BUDGET)
    assert report.retries == 2
    result = report.results[0]
    assert result.status == "error"
    assert result.attempts == 3


def test_hung_worker_is_reaped_as_unknown():
    jobs = [Job("wedge", "crash", "hang"), Job("ok", "pattern", "xy*")]
    report = solve_batch(jobs, workers=2, fuel=100000, seconds=0.3,
                         reap_grace=0.4)
    wedge, ok = report.results
    assert wedge.status == "unknown"
    assert wedge.error["type"] == "WorkerTimeout"
    assert ok.status == "sat"


def test_single_worker_survives_mid_batch_kill():
    jobs = [
        Job("a", "pattern", "a"),
        Job("boom", "crash", "kill"),
        Job("b", "pattern", "b"),
    ]
    report = solve_batch(jobs, workers=1, retries=1, **BUDGET)
    assert [r.status for r in report.results] == ["sat", "error", "sat"]
    assert report.retries == 1


def test_worker_metrics_survive_clean_shutdown():
    report = solve_batch([Job("p", "pattern", "ab*")], workers=1, **BUDGET)
    assert report.worker_metrics  # the lone worker shut down cleanly
    assert report.cpu_s >= 0.0
    assert report.wall_s > 0.0


def test_pool_rejects_zero_workers():
    from repro.serve import WorkerPool

    with pytest.raises(ValueError):
        WorkerPool(workers=0)


def test_explain_batch_certifies_every_concrete_verdict():
    jobs = [
        Job("sat", "pattern", "(ab)*a"),
        Job("unsat", "pattern", "(ab)*&b.*"),
        Job("smt", "smt2",
            '(declare-fun x () String)'
            '(assert (str.in_re x (re.+ (str.to_re "a"))))(check-sat)'),
    ]
    report = solve_batch(jobs, workers=1, explain=True, **BUDGET)
    assert report.counts == {"sat": 2, "unsat": 1, "unknown": 0, "error": 0}
    for result in report.results:
        assert result.explanation is not None
        assert result.explanation["certificate_checked"] is True
        assert "explanation" in result.to_dict()
    certified = report.certified
    assert certified == {"checked": 3, "rejected": 0, "unchecked": 0}
    assert "certificates: 3 checked, 0 rejected" in report.summary_line()


def test_batch_without_explain_has_no_explanations():
    report = solve_batch([Job("p", "pattern", "ab*")], workers=1, **BUDGET)
    assert report.results[0].explanation is None
    assert report.certified == {"checked": 0, "rejected": 0, "unchecked": 0}
    assert "certificates" not in report.summary_line()
