"""The flight recorder, process by process: worker-side recording
(events, span records, heartbeats, slow capture), the pool lane, the
merged timeline, and artifact replay."""

import json
import os

import pytest

from repro.obs.events import EVENT_SCHEMA_VERSION, read_events
from repro.obs.flight import (
    ARTIFACT_SCHEMA_VERSION, PoolFlight, WorkerFlight, capture_artifact,
    events_path, latency_stats, list_artifacts, list_streams, load_artifact,
    load_flight, merge_timeline, render_status, replay_artifact,
    worker_lanes, write_timeline,
)


class FakeQueue:
    """Collects heartbeat messages like the pool's result queue."""

    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)


def make_flight(tmp_path, worker="w0", **config):
    config.setdefault("slow_s", None)
    config.setdefault("heartbeat_s", 60.0)  # loop never fires in tests
    return WorkerFlight(str(tmp_path), worker, config)


def pattern_task(name="job-0", index=0, payload="a|b"):
    return {"name": name, "index": index, "kind": "pattern",
            "payload": payload, "attempts": 0}


# -- worker-side recording ----------------------------------------------------


def test_worker_flight_narrates_a_task(tmp_path):
    flight = make_flight(tmp_path)
    task = pattern_task()
    flight.task_started(task)
    flight.task_finished(task, {"status": "sat", "elapsed": 0.01})
    flight.close(tasks=1)
    events = read_events(events_path(str(tmp_path), "w0"))
    kinds = [e["kind"] for e in events]
    assert kinds == ["task.start", "span", "task.end", "worker.exit"]
    start, _, end, _ = events
    assert start["job"] == "job-0" and start["task_kind"] == "pattern"
    assert end["status"] == "sat" and end["elapsed"] == 0.01
    assert "job" not in events[-1]  # cleared after the task
    assert all(e["worker"] == "w0" and e["pid"] == os.getpid()
               for e in events)


def test_slow_capture_by_latency_threshold(tmp_path):
    flight = make_flight(tmp_path, slow_s=0.5, fuel=10000, seconds=5.0)
    task = pattern_task(name="molasses")
    flight.task_started(task)
    flight.task_finished(task, {"status": "sat", "witness": "a",
                                "elapsed": 0.75})
    flight.close(tasks=1)
    (artifact_path,) = list_artifacts(str(tmp_path))
    artifact = load_artifact(artifact_path)
    assert artifact["v"] == ARTIFACT_SCHEMA_VERSION
    assert artifact["name"] == "molasses"
    assert artifact["payload"] == "a|b"
    assert artifact["status"] == "sat"
    assert artifact["budget"] == {"fuel": 10000, "seconds": 5.0}
    assert artifact["trigger"] == "latency>=0.500s"
    assert artifact["worker"] == "w0" and artifact["pid"] == os.getpid()
    captures = [e for e in read_events(events_path(str(tmp_path), "w0"))
                if e["kind"] == "slow.capture"]
    assert len(captures) == 1
    assert captures[0]["artifact"] == os.path.relpath(
        artifact_path, str(tmp_path)
    )


def test_slow_capture_by_explored_threshold(tmp_path):
    flight = make_flight(tmp_path, slow_explored=100)
    task = pattern_task()
    flight.task_started(task)
    flight.task_finished(task, {
        "status": "unsat", "elapsed": 0.001, "stats": {"explored": 250},
    })
    flight.close(tasks=1)
    (artifact_path,) = list_artifacts(str(tmp_path))
    assert load_artifact(artifact_path)["trigger"] == "explored>=100"


def test_fast_tasks_and_crash_tasks_are_not_captured(tmp_path):
    flight = make_flight(tmp_path, slow_s=10.0)
    fast = pattern_task(name="fast")
    flight.task_started(fast)
    flight.task_finished(fast, {"status": "sat", "elapsed": 0.001})
    crash = {"name": "boom", "index": 1, "kind": "crash", "payload": "kill",
             "attempts": 0}
    flight.task_started(crash)
    # a crash task that somehow returned (e.g. unknown mode) is never
    # worth freezing, however slow
    flight.task_finished(crash, {"status": "error", "elapsed": 99.0})
    flight.close(tasks=2)
    assert list_artifacts(str(tmp_path)) == []


def test_heartbeat_reports_vitals(tmp_path):
    from repro.serve.worker import WorkerState

    flight = make_flight(tmp_path, fuel=1000)
    state = WorkerState(flight.config, obs=flight.observability())
    queue = FakeQueue()
    flight.start_heartbeats(state, queue)
    # the first beat ships immediately, before any task
    assert len(queue.items) >= 1
    beat = queue.items[0]
    assert beat["type"] == "heartbeat"
    assert beat["worker"] == "w0" and beat["pid"] == os.getpid()
    assert beat["queue_depth"] == 0 and beat["tasks"] == 0
    assert beat["rss_bytes"] > 0
    assert set(beat["caches"]) == {"entries_total", "approx_bytes"}
    # mid-task beats carry the in-flight job at depth one
    flight.task_started(pattern_task(name="busy-job"))
    busy = flight.heartbeat()
    assert busy["queue_depth"] == 1 and busy["job"] == "busy-job"
    flight.close(tasks=0)
    # close ships a final beat
    assert queue.items[-1]["type"] == "heartbeat"


def test_spans_flush_epoch_rebased_and_stamped(tmp_path):
    """Span records go into the worker's one stream with the envelope:
    epoch timestamps when recorded, pid and worker stamps, and spans
    still open at close written as unfinished."""
    import time

    before = time.time()
    flight = make_flight(tmp_path)
    with flight.recorder.span("solver.explore"):
        with flight.recorder.span("deriv.tree"):
            pass
    open_span = flight.recorder.span("still.open")
    open_span.__enter__()
    flight.close(tasks=0)
    spans = [e for e in read_events(events_path(str(tmp_path), "w0"))
             if e["kind"] == "span"]
    by_name = {e["name"]: e for e in spans}
    assert set(by_name) == {"solver.explore", "deriv.tree", "still.open"}
    assert by_name["still.open"]["unfinished"] is True
    assert not by_name["solver.explore"].get("unfinished")
    for event in spans:
        assert event["pid"] == os.getpid() and event["worker"] == "w0"
        # epoch-rebased: comparable to time.time(), not a tiny
        # perf_counter-relative offset
        assert before - 1.0 <= event["ts"] <= time.time() + 1.0
    open_span.__exit__(None, None, None)


def test_task_spans_by_default_solver_spans_opt_in(tmp_path):
    """The recorder keeps one task-level span per job; the solver's
    internal tracer is null unless ``trace_solver`` asks for it (inner-
    loop spans are too hot for an always-on recorder)."""
    flight = make_flight(tmp_path)
    assert flight.observability().tracer.enabled is False
    assert flight.observability().events is flight.recorder
    task = pattern_task(name="spanned")
    flight.task_started(task)
    flight.task_finished(task, {"status": "sat", "elapsed": 0.01})
    flight.close(tasks=1)
    spans = [e for e in read_events(events_path(str(tmp_path), "w0"))
             if e["kind"] == "span"]
    assert [e["name"] for e in spans] == ["task:spanned"]
    assert spans[0]["args"]["kind"] == "pattern"
    assert spans[0]["job"] == "spanned"

    traced = WorkerFlight(
        str(tmp_path / "full"), "w1",
        {"slow_s": None, "heartbeat_s": 60.0, "trace_solver": True},
    )
    assert traced.observability().tracer is traced.recorder
    traced.close(tasks=0)


def test_flush_spans_is_incremental(tmp_path):
    """Each task's span records are on disk once the task finishes,
    before the worker closes its stream."""
    flight = make_flight(tmp_path)
    path = events_path(str(tmp_path), "w0")
    for count, name in enumerate(("one", "two"), 1):
        task = pattern_task(name=name, index=count)
        flight.task_started(task)
        flight.task_finished(task, {"status": "sat", "elapsed": 0.01})
        spans = [e for e in read_events(path) if e["kind"] == "span"]
        assert [e["name"] for e in spans][-1] == "task:%s" % name
        assert len(spans) == count
    flight.close(tasks=2)


def test_worker_recorder_keeps_nothing_in_memory(tmp_path):
    """Regression: a flight-recorded worker writes its span and event
    records to its stream and keeps none of them, with and without
    solver-internal spans; the pool keeps no heartbeat list of its own
    (the report's capped deque is the only in-memory copy)."""
    from repro.serve.worker import WorkerState, execute_task

    for trace_solver in (False, True):
        root = tmp_path / ("traced" if trace_solver else "plain")
        flight = make_flight(root, fuel=100000, seconds=5.0,
                             trace_solver=trace_solver)
        state = WorkerState(flight.config, obs=flight.observability())
        for index in range(200):
            task = pattern_task(name="t%d" % index, index=index,
                                payload="(a|b)*a(a|b){3}&~(.*bb.*)")
            flight.task_started(task)
            flight.task_finished(task, execute_task(state, task))
        assert flight.recorder.events is None
        assert flight.recorder._open == []
        flight.close(tasks=200)
        spans = [e for e in read_events(events_path(str(root), "w0"))
                 if e["kind"] == "span"]
        assert len(spans) >= 200
        if trace_solver:
            assert len(spans) > 200
    pool = PoolFlight(str(tmp_path / "pool"))
    for beat in range(50):
        pool.recorder.write(pool.recorder.record("heartbeat", queue_depth=0))
    assert pool.recorder.events is None
    assert not [name for name, value in vars(pool).items()
                if isinstance(value, (list, tuple)) and value]
    pool.finish(results=0)


# -- pool-side recording ------------------------------------------------------


def heartbeat_record(**fields):
    record = {"v": 1, "kind": "heartbeat", "type": "heartbeat",
              "worker": "w0", "pid": 7, "ts": 100.0, "queue_depth": 0,
              "tasks": 0, "rss_bytes": 1048576, "caches": {}}
    record.update(fields)
    return record


def test_pool_flight_ledger_and_timeline(tmp_path):
    """The pool's lane is the heartbeat ledger: relayed heartbeat
    records keep the worker's pid and worker id."""
    pool = PoolFlight(str(tmp_path))
    pool.recorder.emit("pool.start", jobs=2, workers=1)
    pool.recorder.write(heartbeat_record())
    timeline = pool.finish(results=2)
    assert timeline == os.path.join(str(tmp_path), "timeline.json")
    assert os.path.exists(timeline)
    assert sorted(os.listdir(str(tmp_path))) == [
        "events-pool.jsonl", "slow", "timeline.json",
    ]
    records = read_events(events_path(str(tmp_path), "pool"))
    assert [e["kind"] for e in records] == [
        "pool.start", "heartbeat", "pool.end",
    ]
    beat = records[1]
    assert beat["worker"] == "w0" and beat["pid"] == 7
    assert all(e["worker"] == "pool" for e in records if e is not beat)
    assert load_flight(str(tmp_path))["heartbeats"] == [beat]


def test_torn_heartbeat_record_is_skipped(tmp_path):
    path = events_path(str(tmp_path), "pool")
    whole = json.dumps(heartbeat_record(ts=1.0))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(whole + "\n" + whole[:5])
    assert len(load_flight(str(tmp_path))["heartbeats"]) == 1


# -- the merged flight --------------------------------------------------------


def synthetic_flight(tmp_path):
    """Hand-write a two-worker flight: interleaved spans, events, and
    heartbeats with distinct pids."""
    root = str(tmp_path)
    os.makedirs(root, exist_ok=True)

    def write(path, rows, mode="w"):
        with open(path, mode, encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")

    def append(path, rows):
        write(path, rows, mode="a")

    write(events_path(root, "w0"), [
        {"v": 1, "kind": "task.start", "ts": 10.0, "pid": 100,
         "worker": "w0", "name": "j0", "task_kind": "pattern", "index": 0},
        {"v": 1, "kind": "task.end", "ts": 14.0, "pid": 100,
         "worker": "w0", "name": "j0", "index": 0, "status": "sat",
         "elapsed": 4.0},
    ])
    write(events_path(root, "w1"), [
        {"v": 1, "kind": "task.start", "ts": 11.0, "pid": 200,
         "worker": "w1", "name": "j1", "task_kind": "pattern", "index": 1},
        {"v": 1, "kind": "task.end", "ts": 12.0, "pid": 200,
         "worker": "w1", "name": "j1", "index": 1, "status": "unsat",
         "elapsed": 1.0},
    ])
    write(events_path(root, "pool"), [
        {"v": 1, "kind": "pool.start", "ts": 9.0, "pid": 1,
         "worker": "pool", "jobs": 2, "workers": 2},
        {"v": 1, "kind": "worker.crash", "ts": 13.0, "pid": 1,
         "worker": "pool", "crashed": "w1", "name": "j1"},
    ])
    # concurrent spans: w0's solve overlaps w1's solve in wall time
    append(events_path(root, "w0"), [
        {"v": 1, "kind": "span", "name": "solver.explore", "ts": 10.5,
         "dur": 3.0, "depth": 0, "args": {}, "pid": 100, "worker": "w0"},
        {"v": 1, "kind": "span", "name": "deriv.tree", "ts": 11.0,
         "dur": 1.0, "depth": 1, "args": {}, "pid": 100, "worker": "w0"},
    ])
    append(events_path(root, "w1"), [
        {"v": 1, "kind": "span", "name": "solver.explore", "ts": 11.2,
         "dur": 0.5, "depth": 0, "args": {}, "pid": 200, "worker": "w1",
         "unfinished": True},
    ])
    # the pool lane relays the workers' heartbeats
    append(events_path(root, "pool"), [
        heartbeat_record(worker="w0", pid=100, ts=10.1, queue_depth=1,
                         job="j0", rss_bytes=2 * 1048576,
                         caches={"entries_total": 50, "approx_bytes": 1000}),
        heartbeat_record(worker="w1", pid=200, ts=11.1, queue_depth=1,
                         job="j1", rss_bytes=3 * 1048576,
                         caches={"entries_total": 70, "approx_bytes": 2000}),
    ])
    return root


def test_list_streams_finds_all_lanes(tmp_path):
    root = synthetic_flight(tmp_path)
    streams = list_streams(root)
    assert set(streams) == {"pool", "w0", "w1"}
    assert streams["w0"] == events_path(root, "w0")
    assert list_streams(str(tmp_path / "missing")) == {}


def test_load_flight_merges_by_ts_and_maps_lanes(tmp_path):
    flight = load_flight(synthetic_flight(tmp_path))
    ts = [e["ts"] for e in flight["events"]]
    assert ts == sorted(ts)
    assert [e["kind"] for e in flight["events"]] == [
        "pool.start", "task.start", "task.start", "task.end",
        "worker.crash", "task.end",
    ]
    assert flight["lanes"] == {1: "pool", 100: "w0", 200: "w1"}
    assert len(flight["heartbeats"]) == 2


def test_load_flight_keeps_per_lane_order_on_ts_ties(tmp_path):
    """Per-worker event ordering survives the merge: equal timestamps
    keep each lane's own file order (the sort is stable)."""
    root = str(tmp_path)
    with open(events_path(root, "w0"), "w", encoding="utf-8") as handle:
        for index in range(5):
            handle.write(json.dumps({
                "v": 1, "kind": "task.start", "ts": 5.0, "pid": 100,
                "worker": "w0", "name": "j%d" % index,
                "task_kind": "pattern", "index": index,
            }) + "\n")
    flight = load_flight(root)
    assert [e["index"] for e in flight["events"]] == [0, 1, 2, 3, 4]


def test_merge_timeline_gives_each_process_its_own_lane(tmp_path):
    trace = merge_timeline(synthetic_flight(tmp_path))
    events = trace["traceEvents"]
    labels = {
        e["pid"]: e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e.get("name") == "process_name"
    }
    assert labels == {1: "pool", 100: "w0", 200: "w1"}
    spans = [e for e in events if e.get("ph") == "X"]
    assert {e["pid"] for e in spans} == {100, 200}
    # w1's unfinished span survives the merge, marked as such
    unfinished = [e for e in spans if e["args"].get("unfinished")]
    assert len(unfinished) == 1 and unfinished[0]["pid"] == 200
    # structured events ride along as instant markers on their lane
    instants = {(e["name"], e["pid"]) for e in events if e.get("ph") == "i"}
    assert ("worker.crash", 1) in instants
    assert ("task.start", 100) in instants and ("task.start", 200) in instants
    # heartbeats become per-process counter tracks
    counters = [e for e in events if e.get("ph") == "C"]
    assert {e["name"] for e in counters} == {
        "rss_mb", "cache_entries", "queue_depth",
    }
    rss = {e["pid"]: e["args"]["rss_mb"] for e in counters
           if e["name"] == "rss_mb"}
    assert rss == {100: 2.0, 200: 3.0}
    # everything is rebased to the earliest instant (the pool.start at
    # ts=9.0), so the trace starts at zero microseconds
    stamps = [e["ts"] for e in events if e.get("ph") in ("X", "i", "C")]
    assert min(stamps) == pytest.approx(0.0)
    assert max(stamps) == pytest.approx(5.0e6)  # 14.0 - 9.0 seconds


def test_write_timeline_is_loadable_json(tmp_path):
    root = synthetic_flight(tmp_path)
    path = write_timeline(root)
    with open(path, "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    assert trace["traceEvents"]


# -- latency, lanes, status ---------------------------------------------------


def test_latency_stats_nearest_rank_percentiles():
    events = [
        {"kind": "task.end", "elapsed": ms / 1000.0}
        for ms in range(1, 101)
    ]
    stats = latency_stats(events)
    assert stats["count"] == 100
    assert stats["p50_s"] == pytest.approx(0.050)
    assert stats["p90_s"] == pytest.approx(0.090)
    assert stats["p99_s"] == pytest.approx(0.099)
    assert stats["max_s"] == pytest.approx(0.100)
    empty = latency_stats([{"kind": "task.start"}])
    assert empty["count"] == 0 and empty["p50_s"] is None


def test_worker_lanes_aggregate_tasks_beats_and_incidents(tmp_path):
    flight = load_flight(synthetic_flight(tmp_path))
    lanes = {row["worker"]: row for row in worker_lanes(flight)}
    assert set(lanes) == {"w0", "w1"}
    assert lanes["w0"]["tasks"] == 1
    assert lanes["w0"]["busy_s"] == pytest.approx(4.0)
    assert lanes["w0"]["heartbeats"] == 1
    assert lanes["w0"]["rss_mb"] == pytest.approx(2.0)
    assert lanes["w0"]["cache_entries"] == 50
    assert lanes["w0"]["crashed"] == 0
    assert lanes["w1"]["crashed"] == 1
    assert lanes["w1"]["last_job"] == "j1"


def test_render_status_text(tmp_path):
    root = synthetic_flight(tmp_path)
    write_timeline(root)
    text = render_status(root)
    assert "w0" in text and "w1" in text
    assert "latency: 2 tasks" in text
    assert "worker.crash" in text
    assert "timeline:" in text
    empty = render_status(str(tmp_path / "nothing"))
    assert "no worker lanes" in empty


# -- artifacts + replay -------------------------------------------------------


def test_capture_artifact_freezes_the_task(tmp_path):
    path = capture_artifact(
        str(tmp_path),
        {"name": "weird/name with spaces!", "index": 7, "kind": "pattern",
         "payload": "(ab)*"},
        {"status": "sat", "witness": "", "elapsed": 2.0,
         "stats": {"explored": 3}},
        {"fuel": 500, "seconds": 1.0, "max_char": 127},
        worker="w2", pid=999, trigger="latency>=1.000s",
    )
    assert os.path.basename(path).startswith("0007-")
    assert "/" not in os.path.basename(path)[5:]
    artifact = load_artifact(path)
    assert artifact["payload"] == "(ab)*"
    assert artifact["max_char"] == 127
    assert artifact["stats"] == {"explored": 3}


def test_load_artifact_rejects_junk_and_newer_schema(tmp_path):
    junk = tmp_path / "junk.json"
    junk.write_text('{"no": "payload"}')
    with pytest.raises(ValueError):
        load_artifact(str(junk))
    future = tmp_path / "future.json"
    future.write_text(json.dumps({
        "v": ARTIFACT_SCHEMA_VERSION + 1, "payload": "a",
    }))
    with pytest.raises(ValueError):
        load_artifact(str(future))


def test_replay_artifact_reproduces_the_verdict(tmp_path):
    artifact = {
        "v": ARTIFACT_SCHEMA_VERSION, "name": "tight", "index": 0,
        "kind": "pattern", "payload": "(.*a.{4})&(.*b.{4})",
        "budget": {"fuel": 100000, "seconds": 10.0}, "max_char": 127,
        "status": "unsat", "elapsed": 0.5,
    }
    comparison = replay_artifact(artifact)
    assert comparison["recorded"] == "unsat"
    assert comparison["replayed"] == "unsat"
    assert comparison["match"] is True
    assert comparison["artifact"] is None  # dict source, no path


def test_replay_artifact_flags_a_mismatch():
    comparison = replay_artifact({
        "v": ARTIFACT_SCHEMA_VERSION, "name": "lied", "index": 0,
        "kind": "pattern", "payload": "a|b",
        "budget": {"fuel": 1000, "seconds": 5.0}, "max_char": 127,
        "status": "unsat",  # recorded verdict is wrong on purpose
    })
    assert comparison["replayed"] == "sat"
    assert comparison["match"] is False


def test_replay_round_trip_through_capture(tmp_path):
    """capture_artifact -> replay_artifact is the slow-query contract:
    the frozen task re-solves to the same verdict."""
    task = pattern_task(name="roundtrip", payload="(a|b)*c")
    out = {"status": "sat", "witness": "c", "elapsed": 3.0}
    path = capture_artifact(
        str(tmp_path), task, out,
        {"fuel": 100000, "seconds": 10.0, "max_char": 127},
        worker="w0", pid=1, trigger="latency>=1.000s",
    )
    comparison = replay_artifact(path)
    assert comparison["match"] is True
    assert comparison["artifact"] == path
    assert comparison["witness"] is not None


SMT2_SAT = ('(declare-fun x () String)'
            '(assert (str.in_re x (str.to_re "a")))(check-sat)')


def test_capture_artifact_embeds_checked_certificate(tmp_path):
    """Slow concrete verdicts gain an independently checked proof."""
    from repro.obs.explain import check_certificate

    for task, status in (
        (pattern_task(name="proof", payload="(ab)*&b.*"), "unsat"),
        (dict(pattern_task(name="script", index=1, payload=SMT2_SAT),
              kind="smt2"), "sat"),
    ):
        path = capture_artifact(
            str(tmp_path), task, {"status": status, "elapsed": 2.0},
            {"fuel": 100000, "seconds": 5.0, "max_char": 127},
            worker="w0", pid=1, trigger="latency>=1.000s",
        )
        cert = load_artifact(path)["certificate"]
        assert cert["status"] == status
        assert cert["explanation"]["certificate_checked"] is True
        certificates = [cert["certificate"]]
        if task["kind"] == "smt2":
            # one certificate per variable of the satisfied case
            certificates = [branch["certificate"]
                            for branch in cert["certificate"]["branches"]]
        assert certificates
        assert all(check_certificate(c).ok for c in certificates)


def test_capture_artifact_skips_certificates_for_unknowns(tmp_path):
    path = capture_artifact(
        str(tmp_path), pattern_task(name="vague", payload="(ab)*"),
        {"status": "unknown", "reason": "fuel", "elapsed": 2.0},
        {"fuel": 10, "seconds": 5.0, "max_char": 127},
        worker="w0", pid=1, trigger="latency>=1.000s",
    )
    assert "certificate" not in load_artifact(path)
