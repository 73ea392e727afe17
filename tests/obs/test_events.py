"""The record stream's events: envelope stamping, schema validation,
file round-trips, crash tolerance, and the null recorder."""

import json

import pytest

from repro.obs.events import (
    EVENT_KINDS, EVENT_SCHEMA_VERSION, NULL_RECORDER, NullRecorder, Recorder,
    read_events, validate_event,
)


def make_log(**kwargs):
    """An in-memory recorder over a deterministic fake clock."""
    t = {"now": 0.0}

    def clock():
        t["now"] += 1.0
        return t["now"]

    kwargs.setdefault("clock", clock)
    kwargs.setdefault("pid", 4242)
    return Recorder(**kwargs)


def test_emit_stamps_the_correlation_envelope():
    log = make_log(worker="w3")
    event = log.emit("task.start", name="job-1", task_kind="pattern",
                     index=0)
    assert event["v"] == EVENT_SCHEMA_VERSION
    assert event["kind"] == "task.start"
    assert event["ts"] == 1.0
    assert event["pid"] == 4242
    assert event["worker"] == "w3"
    assert "job" not in event  # no job set yet
    assert log.events == [event]


def test_set_job_stamps_and_clears():
    log = make_log(worker="w0")
    log.set_job("slow-query")
    stamped = log.emit("query.start", query="uid:9")
    assert stamped["job"] == "slow-query"
    log.set_job(None)
    cleared = log.emit("query.end", query="uid:9", status="sat",
                       elapsed=0.5)
    assert "job" not in cleared


def test_every_registered_kind_validates_when_fields_present():
    log = make_log(worker="w0")
    fillers = {
        "query": "uid:1", "status": "sat", "elapsed": 0.1,
        "case_splits": 2, "retired": 5, "entries_before": 10,
        "entries_after": 5, "tasks": 3, "retiring": False,
        "name": "job", "task_kind": "pattern", "index": 0,
        "artifact": "slow/0000-job.json", "jobs": 4, "workers": 2,
        "results": 4, "spawned": "w1", "crashed": "w1", "reaped": "w1",
        "recycled": "w1", "address": "/tmp/repro.sock", "served": 12,
        "client": "c1", "job": "q1", "degraded": False,
        "reason": "overloaded", "latency_s": 0.2, "dur": 0.5, "depth": 0,
        "args": {}, "queue_depth": 0, "rss_bytes": 1, "caches": {},
    }
    for kind, required in EVENT_KINDS.items():
        event = log.emit(kind, **{f: fillers[f] for f in required})
        assert validate_event(event) == [], kind


def test_validate_event_flags_problems():
    assert validate_event("nope")
    assert any("missing" in p for p in validate_event({"kind": "task.start"}))
    log = make_log()
    unknown = log.emit("made.up")
    assert any("unknown kind" in p for p in validate_event(unknown))
    incomplete = log.emit("task.end", name="x")
    problems = validate_event(incomplete)
    assert any("missing 'index'" in p for p in problems)
    assert any("missing 'status'" in p for p in problems)
    newer = dict(log.emit("worker.start"), v=EVENT_SCHEMA_VERSION + 1)
    assert any("newer" in p for p in validate_event(newer))


def test_file_round_trip(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with make_log(path=path, worker="w1") as log:
        log.emit("worker.start")
        log.set_job("j")
        log.emit("task.start", name="j", task_kind="pattern", index=0)
    events = read_events(path)
    assert [e["kind"] for e in events] == ["worker.start", "task.start"]
    assert events[1]["job"] == "j"
    assert all(e["worker"] == "w1" and e["pid"] == 4242 for e in events)


def test_keep_false_writes_file_only(tmp_path):
    path = str(tmp_path / "events.jsonl")
    log = make_log(path=path, worker="w1", keep=False)
    log.emit("worker.start")
    log.close()
    assert log.events is None
    assert len(read_events(path)) == 1


def test_append_mode_survives_reopen(tmp_path):
    """Two sequential logs on one path append (a recycled worker's
    replacement keeps the lane's history)."""
    path = str(tmp_path / "events.jsonl")
    with make_log(path=path, worker="w0") as log:
        log.emit("worker.start")
    with make_log(path=path, worker="w0") as log:
        log.emit("worker.start")
    assert len(read_events(path)) == 2


def test_read_events_tolerates_torn_final_line(tmp_path):
    """A SIGKILL mid-write leaves a truncated last line; the reader
    keeps everything before it."""
    path = tmp_path / "events.jsonl"
    whole = json.dumps({"v": 1, "kind": "task.start", "ts": 1.0,
                        "pid": 1, "name": "j", "task_kind": "pattern",
                        "index": 0})
    path.write_text(whole + "\n" + whole[: len(whole) // 2])
    events = read_events(str(path))
    assert len(events) == 1
    with pytest.raises(ValueError):
        read_events(str(path), strict=True)


def test_read_events_skips_newer_schema_versions(tmp_path):
    path = tmp_path / "events.jsonl"
    current = {"v": EVENT_SCHEMA_VERSION, "kind": "worker.start",
               "ts": 1.0, "pid": 1}
    future = dict(current, v=EVENT_SCHEMA_VERSION + 1, kind="from.the.future")
    path.write_text(json.dumps(current) + "\n" + json.dumps(future) + "\n")
    events = read_events(str(path))
    assert len(events) == 1 and events[0]["kind"] == "worker.start"


def test_read_events_skips_non_object_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('[1, 2]\n{"v": 1, "kind": "worker.start", '
                    '"ts": 1.0, "pid": 1}\n')
    assert len(read_events(str(path))) == 1
    with pytest.raises(ValueError):
        read_events(str(path), strict=True)


def test_read_events_skips_records_with_mistyped_envelopes(tmp_path):
    """A record whose ``v`` is not an integer, ``kind`` not a string or
    ``ts`` not a number is skipped (``strict`` raises instead) — the
    readers sort and compare these fields."""
    path = tmp_path / "events.jsonl"
    good = {"v": 1, "kind": "task.end", "ts": 1.0, "pid": 5, "name": "j",
            "index": 0, "status": "sat", "elapsed": 0.1}
    bad = [dict(good, v="1"), dict(good, kind=7), dict(good, ts="late"),
           dict(good, v=True)]
    path.write_text("".join(json.dumps(r) + "\n" for r in [good] + bad))
    assert read_events(str(path)) == [good]
    with pytest.raises(ValueError):
        read_events(str(path), strict=True)
    for record in bad:
        assert validate_event(record)


def test_null_event_log_is_inert(tmp_path):
    assert NULL_RECORDER.enabled is False
    assert isinstance(NULL_RECORDER, NullRecorder)
    assert NULL_RECORDER.emit("task.start", name="x") is None
    NULL_RECORDER.set_job("x")
    assert NULL_RECORDER.job is None
    assert NULL_RECORDER.events == ()
    with NULL_RECORDER as log:
        assert log is NULL_RECORDER


def test_observability_bundles_events():
    from repro.obs import NULL_OBS, Observability

    assert NULL_OBS.events.enabled is False
    assert Observability().events.enabled is False
    live = Observability(events=make_log())
    assert live.events.enabled is True
    assert live.enabled is True
