"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


def run(capsys, *argv):
    status = main(list(argv))
    return status, capsys.readouterr().out


def test_check_sat(capsys):
    status, out = run(capsys, "--ascii", "check", r"(.*\d.*)&~(.*01.*)")
    assert status == 0
    assert "sat" in out and "witness" in out


def test_check_unsat(capsys):
    status, out = run(capsys, "--ascii", "check", r"a&b")
    assert status == 0
    assert out.startswith("unsat")


def test_check_unknown_exit_code(capsys):
    status, out = run(
        capsys, "--ascii", "--fuel", "2", "check",
        "~(.*a.{30})&~(.*b.{30})&(a|b){40}",
    )
    assert status == 2
    assert "unknown" in out


def test_contains(capsys):
    status, out = run(capsys, "--ascii", "contains", "a{3}", "a{2,5}")
    assert status == 0 and "holds" in out
    status, out = run(capsys, "--ascii", "contains", "a{2,5}", "a{3}")
    assert "counterexample" in out


def test_equiv(capsys):
    _, out = run(capsys, "--ascii", "equiv", "(a|b)*", "(a*b*)*")
    assert "equivalent" in out
    _, out = run(capsys, "--ascii", "equiv", "a*b*", "(a|b)*")
    assert "distinguishing" in out


def test_match(capsys):
    _, out = run(capsys, "--ascii", "match", "b+", "abba")
    assert "fullmatch: False" in out
    assert "span=(1, 3)" in out or "span=(1, 2)" in out


def test_solve_smt2(capsys, tmp_path):
    path = tmp_path / "q.smt2"
    path.write_text(
        '(set-logic QF_S)(declare-const x String)'
        '(assert (str.in_re x (re.+ (str.to_re "ab"))))(check-sat)'
    )
    status, out = run(capsys, "solve", str(path))
    assert status == 0
    assert "sat" in out and "'ab'" in out


def test_check_profile_writes_collapsed_stacks(capsys, tmp_path):
    from repro.obs.profile import read_collapsed

    path = tmp_path / "out.folded"
    status, out = run(
        capsys, "--ascii", "--profile", str(path), "check",
        r"(.*a.{8})&(.*b.{8})",
    )
    assert status == 0
    assert "profile: wrote" in out
    assert "total traced wall" in out  # hotspot table on stdout
    parsed = read_collapsed(str(path))
    assert parsed and all(count > 0 for _, count in parsed)
    names = {frame for stack, _ in parsed for frame in stack}
    assert "solver.explore" in names


def test_trace_and_profile_share_one_tracer(capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    folded = tmp_path / "out.folded"
    status, out = run(
        capsys, "--ascii", "--trace", str(trace), "--profile", str(folded),
        "check", "a&b",
    )
    assert status == 0
    assert "trace:" in out and "profile:" in out
    assert trace.exists() and folded.exists()


def test_graph_text_and_dot(capsys):
    _, out = run(capsys, "--ascii", "graph", ".*01.*")
    assert "--[" in out
    _, out = run(capsys, "--ascii", "graph", "--dot", ".*01.*")
    assert out.startswith("digraph")


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv, error", [
    (["graph", "(?=a)a"], "UnsupportedError"),
    (["check", "("], "RegexSyntaxError"),
])
def test_typed_library_error_is_one_line_diagnostic(capsys, argv, error):
    status = main(["--ascii"] + argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err.startswith("repro: %s: " % error)
    assert captured.err.count("\n") == 1
    assert captured.out == ""


SMT2_SAT = (
    "(set-logic QF_S)\n(declare-const x String)\n"
    '(assert (str.in_re x (re.+ (str.to_re "ab"))))\n(check-sat)\n'
)
SMT2_UNSAT = (
    "(set-logic QF_S)\n(declare-const x String)\n"
    '(assert (str.in_re x (re.inter (str.to_re "a") (str.to_re "b"))))\n'
    "(check-sat)\n"
)


def test_solve_jobs_matches_serial(capsys, tmp_path):
    a = tmp_path / "a.smt2"
    b = tmp_path / "b.smt2"
    a.write_text(SMT2_SAT)
    b.write_text(SMT2_UNSAT)
    status_serial, out_serial = run(capsys, "solve", str(a), str(b))
    status_par, out_par = run(capsys, "solve", str(a), str(b), "--jobs", "2")
    assert status_par == status_serial == 0
    # same verdicts, same order
    assert [l.split(": ")[1].split()[0] for l in out_par.splitlines()] == \
        [l.split(": ")[1].split()[0] for l in out_serial.splitlines()]


def test_solve_jobs_forwards_explain(capsys, tmp_path):
    # like `repro --explain batch`, the pooled solve has every verdict
    # certificate checked in its worker
    a = tmp_path / "a.smt2"
    b = tmp_path / "b.smt2"
    a.write_text(SMT2_SAT)
    b.write_text(SMT2_UNSAT)
    status, out = run(capsys, "--explain", "solve", str(a), str(b),
                      "--jobs", "2")
    assert status == 0
    lines = out.splitlines()
    assert lines[0].startswith("%s: sat" % a)
    assert lines[1].startswith("%s: unsat" % b)
    assert all(line.endswith("[certified]") for line in lines)


def test_batch_directory(capsys, tmp_path):
    (tmp_path / "a.smt2").write_text(SMT2_SAT)
    (tmp_path / "b.smt2").write_text(SMT2_UNSAT)
    status, out = run(capsys, "batch", str(tmp_path), "--jobs", "2")
    assert status == 0
    lines = out.splitlines()
    assert lines[0].startswith("a.smt2: sat")
    assert lines[1].startswith("b.smt2: unsat")
    assert "2 jobs" in lines[2]


def test_batch_jsonl_with_crash_and_output(capsys, tmp_path):
    import json as json_mod

    jsonl = tmp_path / "jobs.jsonl"
    jsonl.write_text(
        '{"name": "p1", "pattern": "a|b"}\n'
        '{"name": "boom", "crash": "kill"}\n'
        '{"name": "p2", "pattern": "x*y"}\n'
    )
    results = tmp_path / "out.jsonl"
    status, out = run(capsys, "batch", str(jsonl), "--jobs", "2",
                      "--output", str(results))
    assert status == 1  # the crashed task is an error record
    lines = out.splitlines()
    assert lines[0].startswith("p1: sat")
    assert "WorkerCrashed" in lines[1]
    assert lines[2].startswith("p2: sat")
    dumped = [json_mod.loads(l) for l in results.read_text().splitlines()]
    assert [d["name"] for d in dumped] == ["p1", "boom", "p2"]
    assert dumped[1]["error"]["type"] == "WorkerCrashed"


def test_batch_empty_path_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["batch", str(empty)]) == 2


def test_stats_prints_cache_hit_ratio(capsys):
    status, out = run(capsys, "--ascii", "--stats", "check", "(a|b)*(ab)+")
    assert status == 0
    assert "cache hit ratio:" in out
    assert "memo lookups" in out


def test_match_stats_prints_dfa_row_ratio(capsys):
    status, out = run(capsys, "--ascii", "--stats", "match", "(ab)*",
                      "abababab")
    assert status == 0
    assert "dfa: steps=8" in out
    assert "row_hits=6" in out and "row_misses=2" in out
    assert "cache hit ratio: 75.0% (6/8 row lookups)" in out


def flight_batch(capsys, tmp_path):
    jsonl = tmp_path / "jobs.jsonl"
    jsonl.write_text(
        '{"name": "easy", "pattern": "a|b"}\n'
        '{"name": "hard", "pattern": "(.*a.{6})&(.*b.{6})"}\n'
    )
    flight = tmp_path / "flight"
    status, out = run(
        capsys, "batch", str(jsonl), "--jobs", "2",
        "--flight-dir", str(flight), "--slow-explored", "2",
        "--heartbeat", "0.01",
    )
    return status, out, flight


def test_batch_flight_dir_records_and_reports(capsys, tmp_path):
    status, out, flight = flight_batch(capsys, tmp_path)
    assert status == 0
    assert "flight: %s" % flight in out
    assert "heartbeats)" in out
    assert (flight / "timeline.json").exists()
    assert (flight / "heartbeats.jsonl").exists()
    assert list((flight / "slow").glob("*.json"))


def test_status_renders_the_flight(capsys, tmp_path):
    _, _, flight = flight_batch(capsys, tmp_path)
    status, out = run(capsys, "status", str(flight))
    assert status == 0
    assert out.startswith("flight ")
    assert "latency:" in out
    assert "slow queries" in out
    assert "timeline:" in out


def test_replay_flight_dir_exits_zero_on_matching_verdicts(capsys, tmp_path):
    _, _, flight = flight_batch(capsys, tmp_path)
    status, out = run(capsys, "replay", str(flight))
    assert status == 0
    assert "-> ok" in out
    assert "0 mismatches" in out


def test_replay_single_artifact_and_mismatch_exit(capsys, tmp_path):
    import json as json_mod

    _, _, flight = flight_batch(capsys, tmp_path)
    artifact = sorted((flight / "slow").glob("*.json"))[0]
    status, out = run(capsys, "replay", str(artifact), "--json")
    assert status == 0
    assert json_mod.loads(out.splitlines()[0])["match"] is True
    # corrupt the recorded verdict: replay must flag it and exit 1
    frozen = json_mod.loads(artifact.read_text())
    frozen["status"] = "unknown"
    artifact.write_text(json_mod.dumps(frozen))
    status, out = run(capsys, "replay", str(artifact))
    assert status == 1
    assert "MISMATCH" in out


def test_replay_empty_flight_is_usage_error(capsys, tmp_path):
    empty = tmp_path / "empty-flight"
    empty.mkdir()
    assert main(["replay", str(empty)]) == 2


def test_explain_sat_narrative(capsys):
    status, out = run(capsys, "--ascii", "explain", "ab*c")
    assert status == 0
    assert "sat" in out
    assert "certificate checked: yes" in out


def test_explain_unsat_writes_certificate_and_dot(capsys, tmp_path):
    import json as json_mod

    from repro.obs.explain import check_certificate

    cert_path = tmp_path / "cert.json"
    dot_path = tmp_path / "cert.dot"
    status, out = run(
        capsys, "--ascii", "explain", "(ab)*&b.*",
        "--json", str(cert_path), "--dot", str(dot_path),
    )
    assert status == 0
    assert "unsat" in out
    cert = json_mod.loads(cert_path.read_text())
    assert check_certificate(cert).ok
    assert dot_path.read_text().startswith("digraph")


def test_explain_no_check_leaves_unchecked(capsys):
    status, out = run(capsys, "--ascii", "explain", "a&b", "--no-check")
    assert status == 0
    assert "certificate checked: yes" not in out


def test_explain_unknown_has_reason(capsys):
    status, out = run(
        capsys, "--ascii", "--fuel", "2", "explain",
        "~(.*a.{30})&~(.*b.{30})&(a|b){40}",
    )
    assert status == 2
    assert "unknown" in out


def test_check_stats_includes_explanation_summary(capsys):
    status, out = run(
        capsys, "--ascii", "--explain", "--stats", "check", "a&b"
    )
    assert status == 0
    assert "explanation: unsat" in out


def test_check_without_explain_has_no_explanation_line(capsys):
    status, out = run(capsys, "--ascii", "--stats", "check", "a&b")
    assert status == 0
    assert "explanation:" not in out


# -- status/replay diagnostics (no tracebacks, clean exit codes) --------------


def test_status_missing_dir_is_clean_diagnostic(capsys, tmp_path):
    status = main(["status", str(tmp_path / "never-recorded")])
    captured = capsys.readouterr()
    assert status == 2
    assert "is not a directory" in captured.err
    assert "Traceback" not in captured.err


def test_status_empty_dir_is_clean_diagnostic(capsys, tmp_path):
    empty = tmp_path / "empty-flight"
    empty.mkdir()
    status = main(["status", str(empty)])
    captured = capsys.readouterr()
    assert status == 2
    assert "no flight streams" in captured.err
    assert "Traceback" not in captured.err


def test_status_torn_event_line_still_renders(capsys, tmp_path):
    """A crash mid-write leaves a torn last line; status must render
    what is readable instead of dying on the tail."""
    torn = tmp_path / "torn-flight"
    torn.mkdir()
    (torn / "events-w0.jsonl").write_text(
        '{"type": "ev", "ts": 1.0, "name": "pool.start"}\n{"half'
    )
    status, out = run(capsys, "status", str(torn))
    assert status == 0
    assert out.startswith("flight ")


def test_replay_missing_path_is_clean_diagnostic(capsys, tmp_path):
    status = main(["replay", str(tmp_path / "nothing-here")])
    captured = capsys.readouterr()
    assert status == 2
    assert "does not exist" in captured.err
    assert "Traceback" not in captured.err


def test_replay_torn_artifact_is_skipped_with_diagnostic(capsys, tmp_path):
    flight = tmp_path / "flight"
    slow = flight / "slow"
    slow.mkdir(parents=True)
    (slow / "torn.json").write_text('{"torn": ')
    status = main(["replay", str(flight)])
    captured = capsys.readouterr()
    assert status == 2  # nothing replayable survived
    assert "skipping" in captured.err
    assert "1 skipped" in captured.out
    assert "Traceback" not in captured.err


# -- the warm store through the CLI -------------------------------------------


def test_check_store_roundtrip_warm_hit(capsys, tmp_path):
    store = tmp_path / "store.json"
    pattern = "(a|b)*abb"
    cold_status, cold_out = run(
        capsys, "--store", str(store), "--stats", "check", pattern
    )
    assert cold_status == 0
    assert store.exists()
    assert "store: " in cold_out  # save line reports fragment count
    warm_status, warm_out = run(
        capsys, "--store", str(store), "--stats", "check", pattern
    )
    assert warm_status == 0
    assert cold_out.splitlines()[0] == warm_out.splitlines()[0]
    assert "store hit ratio: 100.0% (1/1 fragment lookups)" in warm_out


def test_check_store_corrupt_file_starts_cold(capsys, tmp_path):
    store = tmp_path / "store.json"
    store.write_text("{not json")
    status = main(["--store", str(store), "check", "a|b"])
    captured = capsys.readouterr()
    assert status == 0  # verdict unaffected
    assert "starting cold" in captured.err
    # and the save path rewrites a valid snapshot over the corrupt one
    import json as json_mod

    assert "fragments" in json_mod.loads(store.read_text())


def test_check_store_corrupt_row_is_replayed_to_unknown(capsys, tmp_path):
    """Warm-store rows are trusted by root identity only: retarget a
    non-root row of a captured fragment to a nullable state (as the
    daemon's trust-boundary test does) and the warm solve finds a
    "witness" outside the language, which ``check`` must replay and
    answer as a typed unknown, never as sat."""
    import json as json_mod

    from repro.alphabet import IntervalAlgebra
    from repro.regex import RegexBuilder, parse
    from repro.solver import Budget, RegexSolver
    from repro.solver.store import SolverStore

    pattern = "a{3}b"
    builder = RegexBuilder(IntervalAlgebra())
    store = SolverStore()
    RegexSolver(builder, store=store).is_satisfiable(
        parse(builder, pattern), Budget(fuel=100000, seconds=5.0)
    )
    snapshot = store.to_dict()
    (fragment,) = snapshot["fragments"]
    nullable = next(
        idx for idx, text in enumerate(fragment["states"])
        if parse(builder, text).nullable
    )
    row = next(idx for idx in sorted(fragment["rows"]) if idx != "0")
    for _ranges, targets in fragment["rows"][row]:
        targets[:] = [nullable] * len(targets)
    storepath = tmp_path / "corrupt.json"
    storepath.write_text(json_mod.dumps(snapshot), encoding="utf-8")

    status, out = run(capsys, "--store", str(storepath), "check", pattern)
    assert status == 2
    assert out.splitlines()[0] == "unknown"
    assert "reason: InvalidWitness: " in out
    assert "witness:" not in out
    assert "(1 hits, 0 misses)" in out  # the corrupt row was used
