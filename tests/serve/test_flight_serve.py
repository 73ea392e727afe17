"""The flight recorder end to end: a real worker pool recording into a
flight directory — heartbeats on the report, distinct worker lanes in
the merged timeline, crash narration, and slow-query capture/replay.

These tests spawn real worker processes; the heartbeat interval is
dropped to a few milliseconds so even the shortest batch records beats.
"""

import json
import os
import threading

from repro.obs.events import Recorder, read_events, validate_event
from repro.obs.flight import (
    events_path, list_artifacts, list_streams, load_flight, replay_artifact,
)
from repro.serve import Job, solve_batch
from repro.serve.client import DaemonClient
from repro.serve.daemon import SolverDaemon

BUDGET = {"fuel": 200000, "seconds": 5.0}


def run_flight(tmp_path, jobs, workers=2, **kwargs):
    kwargs.setdefault("heartbeat_s", 0.01)
    return solve_batch(
        jobs, workers=workers, flight_dir=str(tmp_path), **BUDGET, **kwargs
    )


def test_batch_records_a_complete_flight(tmp_path):
    jobs = [
        Job("sat-0", "pattern", "a|b"),
        Job("unsat-0", "pattern", "(.*a.{6})&(.*b.{6})"),
        Job("sat-1", "pattern", "(ab){2,3}"),
        Job("unsat-1", "pattern", "a&b"),
    ]
    report = run_flight(tmp_path, jobs, workers=2)
    assert report.counts == {"sat": 2, "unsat": 2, "unknown": 0, "error": 0}
    assert report.flight_dir == str(tmp_path)

    # every worker that solved something heartbeated
    beats = report.heartbeats_by_worker()
    solved_on = {r.worker for r in report.results}
    assert solved_on <= set(beats)
    for worker, worker_beats in beats.items():
        stamps = [b["ts"] for b in worker_beats]
        assert stamps == sorted(stamps)  # per-worker order preserved
        assert all(b["pid"] for b in worker_beats)
    assert "flight:" in report.summary_line()
    assert report.to_dict()["heartbeats"] == len(report.heartbeats)

    flight = load_flight(str(tmp_path))
    # the on-disk heartbeat ledger matches what the report carries
    assert len(flight["heartbeats"]) == len(report.heartbeats)
    # pool narration brackets the run
    pool_kinds = [e["kind"] for e in read_events(
        events_path(str(tmp_path), "pool")
    )]
    assert pool_kinds[0] == "pool.start" and pool_kinds[-1] == "pool.end"
    assert pool_kinds.count("worker.spawn") == 2
    # each task left its start/end pair in some worker's lane
    ends = [e for e in flight["events"] if e["kind"] == "task.end"]
    assert sorted(e["name"] for e in ends) == sorted(j.name for j in jobs)

    # the merged timeline landed, with one lane per process plus the pool
    with open(os.path.join(str(tmp_path), "timeline.json")) as handle:
        trace = json.load(handle)
    lanes = {
        e["pid"]: e["args"]["name"] for e in trace["traceEvents"]
        if e.get("ph") == "M" and e.get("name") == "process_name"
    }
    worker_pids = {pid for pid, label in lanes.items() if label != "pool"}
    assert len(worker_pids) == 2
    # solver spans from distinct worker processes share the one trace
    span_pids = {
        e["pid"] for e in trace["traceEvents"] if e.get("ph") == "X"
    }
    assert span_pids == worker_pids


def test_slow_queries_are_captured_and_replay_to_same_verdict(tmp_path):
    jobs = [
        Job("fast", "pattern", "a"),
        Job("slow-unsat", "pattern", "(.*a.{8})&(.*b.{8})"),
    ]
    # slow_explored=1: every non-trivial solve trips the derivative
    # threshold deterministically (wall-clock thresholds flake in CI)
    report = run_flight(tmp_path, jobs, workers=1, slow_explored=2)
    assert report.counts["error"] == 0
    artifacts = list_artifacts(str(tmp_path))
    assert artifacts
    statuses = {}
    for path in artifacts:
        comparison = replay_artifact(path)
        assert comparison["match"] is True, comparison
        statuses[comparison["name"]] = comparison["replayed"]
    assert statuses.get("slow-unsat") == "unsat"
    flight = load_flight(str(tmp_path))
    captures = [e for e in flight["events"] if e["kind"] == "slow.capture"]
    assert len(captures) == len(artifacts)


#: ``(.*a.{6})&(.*b.{6})`` as an SMT-LIB script: unsat after exploring
#: 28 derivative states.
BLOWUP_SMT2 = (
    '(declare-fun x () String)'
    '(assert (str.in_re x (re.inter'
    ' (re.++ re.all (str.to_re "a") ((_ re.loop 6 6) re.allchar))'
    ' (re.++ re.all (str.to_re "b") ((_ re.loop 6 6) re.allchar)))))'
    '(check-sat)'
)


def test_smt2_tasks_are_captured_by_explored_states(tmp_path):
    """An smt2 result carries its regex sub-queries' work, so the
    derivative-count threshold captures an SMT task as it captures the
    same constraint given as a pattern."""
    report = run_flight(tmp_path, [Job("smt", "smt2", BLOWUP_SMT2)],
                        workers=1, slow_explored=10)
    [result] = report.results
    assert result.status == "unsat"
    assert result.stats["case_splits"] == 1
    assert result.stats["explored"] == 28
    [path] = list_artifacts(str(tmp_path))
    comparison = replay_artifact(path)
    assert comparison["match"] is True, comparison
    assert (comparison["name"], comparison["replayed"]) == ("smt", "unsat")


def test_crashed_worker_is_narrated_and_survives_in_streams(tmp_path):
    jobs = [
        Job("before", "pattern", "a|b"),
        Job("boom", "crash", "kill"),
        Job("after", "pattern", "x*y"),
    ]
    report = run_flight(tmp_path, jobs, workers=2, retries=0)
    by_name = {r.name: r for r in report.results}
    assert by_name["boom"].status == "error"
    assert by_name["before"].status == "sat"
    assert by_name["after"].status == "sat"

    flight = load_flight(str(tmp_path))
    crashes = [e for e in flight["events"] if e["kind"] == "worker.crash"]
    assert any(e.get("name") == "boom" for e in crashes)
    # the killed worker's lane still shows the task that killed it: the
    # dangling task.start survived because every write is line-flushed
    starts = [e for e in flight["events"]
              if e["kind"] == "task.start" and e["name"] == "boom"]
    assert len(starts) == 1
    # no task.end for it in that lane
    ends = [e for e in flight["events"]
            if e["kind"] == "task.end" and e["name"] == "boom"]
    assert ends == []
    # the timeline still merges after the crash
    assert os.path.exists(os.path.join(str(tmp_path), "timeline.json"))


def test_recycled_worker_is_narrated(tmp_path):
    jobs = [Job("j%d" % i, "pattern", "a|b") for i in range(4)]
    report = run_flight(tmp_path, jobs, workers=1, max_tasks=2)
    assert report.recycled >= 1
    assert report.counts["error"] == 0
    flight = load_flight(str(tmp_path))
    recycles = [e for e in flight["events"] if e["kind"] == "worker.recycle"]
    assert len(recycles) == report.recycled
    exits = [e for e in flight["events"]
             if e["kind"] == "worker.exit" and e.get("retiring")]
    assert len(exits) >= 1


def test_no_flight_dir_means_no_recording(tmp_path):
    report = solve_batch(
        [Job("j", "pattern", "a")], workers=1, **BUDGET
    )
    assert report.flight_dir is None
    assert report.heartbeats == []
    assert "flight:" not in report.summary_line()
    assert "flight_dir" not in report.to_dict()


def lane_records(flight_dir):
    """``{lane: records}`` for every lane of a flight directory."""
    return {lane: read_events(path)
            for lane, path in list_streams(str(flight_dir)).items()}


def assert_every_record_validates(flight_dir):
    lanes = lane_records(flight_dir)
    assert lanes
    for lane, records in lanes.items():
        for record in records:
            assert validate_event(record) == [], (lane, record)
    return lanes


def test_daemon_flight_records_the_serving(tmp_path):
    """``SolverDaemon(flight_dir=...)`` writes its own events into the
    pool lane, ahead of the pool's closing ``pool.end``, and they show
    in the merged timeline."""
    flight_dir = tmp_path / "flight"
    daemon = SolverDaemon(
        path=str(tmp_path / "daemon.sock"), workers=1,
        flight_dir=str(flight_dir), heartbeat_s=0.01, **BUDGET
    )
    daemon.start()
    try:
        with DaemonClient(daemon.address) as client:
            outcomes = client.solve(
                [Job("q0", "pattern", "a|b"), Job("q1", "pattern", "a&b")],
                timeout=60.0,
            )
    finally:
        daemon.stop()
    assert outcomes["q0"]["status"] == "sat"
    assert outcomes["q1"]["status"] == "unsat"
    assert sorted(os.listdir(str(flight_dir))) == [
        "events-pool.jsonl", "events-w0.jsonl", "slow", "timeline.json",
    ]
    lanes = assert_every_record_validates(flight_dir)
    kinds = [r["kind"] for r in lanes["pool"]]
    end = kinds.index("pool.end")
    for kind in ("daemon.start", "client.connect", "job.accept",
                 "job.result", "daemon.stop"):
        assert kind in kinds[:end], kind
    assert kinds[:end].count("job.result") == 2
    assert "heartbeat" in kinds[:end]
    with open(str(flight_dir / "timeline.json")) as handle:
        trace = json.load(handle)
    instants = {e["name"] for e in trace["traceEvents"] if e.get("ph") == "i"}
    assert {"daemon.start", "client.connect", "job.accept", "job.result",
            "daemon.stop"} <= instants


def test_batch_flight_records_all_validate(tmp_path):
    """Every record of a batch flight — events, span records with
    ``trace_solver``, relayed heartbeats — passes the schema, through a
    crash and a slow capture."""
    jobs = [
        Job("before", "pattern", "a|b"),
        Job("boom", "crash", "kill"),
        Job("slow-unsat", "pattern", "(.*a.{4})&(.*b.{4})"),
    ]
    report = run_flight(tmp_path, jobs, workers=1, retries=0,
                        slow_explored=2, trace_solver=True)
    assert report.counts["error"] == 1
    assert list_artifacts(str(tmp_path))
    lanes = assert_every_record_validates(tmp_path)
    kinds = {r["kind"] for records in lanes.values() for r in records}
    assert {"span", "heartbeat", "worker.crash", "slow.capture"} <= kinds
    spans = {r["name"] for records in lanes.values() for r in records
             if r["kind"] == "span"}
    assert "solver.explore" in spans and "task:slow-unsat" in spans


def test_concurrent_emits_leave_whole_lines(tmp_path):
    """The daemon's threads share the pool's recorder: 8 threads x 500
    emits on one file-backed recorder leave 4,000 parseable records."""
    path = events_path(str(tmp_path), "pool")
    recorder = Recorder(path, worker="pool", keep=False)

    def emit_many(client):
        for _ in range(500):
            recorder.emit("client.connect", client=client)

    threads = [threading.Thread(target=emit_many, args=("c%d" % i,))
               for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    recorder.close()
    records = read_events(path, strict=True)
    assert len(records) == 4000
    assert all(validate_event(r) == [] for r in records)
    assert {r["client"] for r in records} == {"c%d" % i for i in range(8)}
