"""Span records: nesting, export round-trips, the Chrome view, and the
null recorder."""

import pytest

from repro.obs import (
    NULL_OBS, NULL_RECORDER, Recorder, chrome_trace, read_chrome, read_jsonl,
    validate_event,
)


def make_tracer():
    """A recorder over a deterministic fake clock (one unit per call)."""
    t = {"now": 0.0}

    def clock():
        t["now"] += 1.0
        return t["now"]

    return Recorder(clock=clock, pid=4242)


def span(name, ts, dur, **fields):
    """A hand-written span record."""
    record = {"v": 1, "kind": "span", "ts": ts, "pid": 4242, "name": name,
              "dur": dur, "depth": 0, "args": {}}
    record.update(fields)
    return record


def test_span_records_name_duration_and_args():
    tracer = make_tracer()
    with tracer.span("solver.explore", strategy="dfs"):
        pass
    (event,) = tracer.events
    assert validate_event(event) == []
    assert event["kind"] == "span" and event["pid"] == 4242
    assert event["ts"] == 1.0  # the span's start
    assert event["name"] == "solver.explore"
    assert event["args"] == {"strategy": "dfs"}
    assert event["dur"] == 1.0
    assert event["depth"] == 0


def test_span_nesting_depths():
    tracer = make_tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner2"):
            pass
    by_name = {e["name"]: e for e in tracer.events}
    assert by_name["outer"]["depth"] == 0
    assert by_name["inner"]["depth"] == 1
    assert by_name["inner2"]["depth"] == 1
    # inner spans complete before the outer one
    assert [e["name"] for e in tracer.events] == ["inner", "inner2", "outer"]


def test_instant_event():
    """Events share the spans' stream and render as Chrome instants."""
    tracer = make_tracer()
    tracer.emit("worker.start", detail=7)
    (event,) = tracer.events
    assert event["kind"] == "worker.start" and "dur" not in event
    (instant,) = chrome_trace(tracer.events)["traceEvents"]
    assert instant["ph"] == "i" and instant["name"] == "worker.start"
    assert instant["args"] == {"detail": 7}


def test_jsonl_round_trip(tmp_path):
    tracer = make_tracer()
    with tracer.span("a", k=1):
        with tracer.span("b"):
            pass
    path = str(tmp_path / "trace.jsonl")
    assert tracer.export(path) == 2  # .jsonl extension selects JSONL
    events = read_jsonl(path)
    assert events == tracer.events


def test_chrome_round_trip(tmp_path):
    tracer = make_tracer()
    with tracer.span("solver.explore"):
        pass
    tracer.emit("worker.start")
    path = str(tmp_path / "trace.json")
    assert tracer.export(path) == 2  # non-.jsonl extension selects Chrome
    events = read_chrome(path)
    spans = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert len(spans) == 1 and len(instants) == 1
    assert spans[0]["name"] == "solver.explore"
    assert spans[0]["dur"] == pytest.approx(1e6)  # microseconds


def test_chrome_trace_shape():
    """Epoch timestamps are rebased so the trace starts at zero."""
    trace = chrome_trace([span("x", 100.5, 0.25), span("y", 100.75, 0.5)])
    assert trace["displayTimeUnit"] == "ms"
    first, second = trace["traceEvents"]
    assert first["ph"] == second["ph"] == "X"
    assert first["ts"] == pytest.approx(0.0)
    assert second["ts"] == pytest.approx(0.25e6)
    assert first["dur"] == pytest.approx(0.25e6)
    assert first["pid"] == 4242 and first["tid"] == 0


def test_chrome_trace_pid_tid_lanes_and_labels():
    """Events carrying pid/tid land on those lanes, and the ``lanes``
    mapping emits ``process_name`` metadata so chrome://tracing labels
    each process row."""
    bare = span("bare", 0.6, 0.1)
    del bare["pid"]
    trace = chrome_trace(
        [span("a", 0.0, 1.0, pid=100, tid=7), span("b", 0.5, 1.0, pid=200),
         bare],
        lanes={100: "w0", 200: "w1"},
    )
    events = trace["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {(e["pid"], e["args"]["name"]) for e in meta} == {
        (100, "w0"), (200, "w1"),
    }
    assert all(e["name"] == "process_name" and e["ts"] == 0 for e in meta)
    spans = {e["name"]: e for e in events if e["ph"] == "X"}
    assert spans["a"]["pid"] == 100 and spans["a"]["tid"] == 7
    assert spans["b"]["pid"] == 200 and spans["b"]["tid"] == 0
    # events without a pid fall back to the default lane
    assert spans["bare"]["pid"] == 0


def test_chrome_trace_concurrent_cross_process_spans():
    """Two workers' overlapping spans export to one trace without the
    lanes swallowing each other: same wall-clock window, distinct pids."""
    overlapping = [
        span("solve", 10.0, 2.0, pid=100), span("solve", 11.0, 2.0, pid=200),
    ]
    events = chrome_trace(overlapping)["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == 2
    windows = {e["pid"]: (e["ts"], e["ts"] + e["dur"]) for e in spans}
    # both spans keep their full duration despite overlapping in time
    assert windows[100] == (0.0, 2.0e6)
    assert windows[200] == (1.0e6, 3.0e6)


def test_read_chrome_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"traceEvents": [{"name": "x"}]}')
    with pytest.raises(ValueError):
        read_chrome(str(path))
    path.write_text('[1, 2, 3]')
    with pytest.raises(ValueError):
        read_chrome(str(path))


def test_span_records_error_on_exception_exit():
    tracer = make_tracer()
    with pytest.raises(ValueError):
        with tracer.span("solver.explore", strategy="dfs"):
            raise ValueError("boom")
    (event,) = tracer.events
    assert event["args"] == {"strategy": "dfs", "error": "ValueError"}
    assert event["dur"] == 1.0  # timed up to the exception exit


def test_span_error_does_not_mutate_caller_args():
    tracer = make_tracer()
    with tracer.span("a", k=1):
        pass
    span = tracer.span("a", k=1)
    with pytest.raises(RuntimeError):
        with span:
            raise RuntimeError()
    clean, errored = tracer.events
    assert clean["args"] == {"k": 1}
    assert errored["args"] == {"k": 1, "error": "RuntimeError"}
    # the Span's own args stay pristine (the error copy is per-event)
    assert span.args == {"k": 1}


def test_export_events_flushes_open_spans_innermost_first():
    tracer = make_tracer()
    outer = tracer.span("outer")
    outer.__enter__()
    with tracer.span("done"):
        pass
    inner = tracer.span("inner")
    inner.__enter__()
    events = tracer.export_events()
    assert [e["name"] for e in events] == ["done", "inner", "outer"]
    flushed = {e["name"]: e for e in events if e.get("unfinished")}
    assert set(flushed) == {"inner", "outer"}
    # children still precede parents, and durations run up to the flush
    assert flushed["outer"]["dur"] > flushed["inner"]["dur"]
    # the spans stay open: exiting them records the real events
    inner.__exit__(None, None, None)
    outer.__exit__(None, None, None)
    assert [e["name"] for e in tracer.events] == ["done", "inner", "outer"]
    assert not any(e.get("unfinished") for e in tracer.events)


def test_exporters_include_unfinished_spans(tmp_path):
    tracer = make_tracer()
    open_span = tracer.span("still.open")
    open_span.__enter__()
    with tracer.span("closed"):
        pass

    jsonl_path = str(tmp_path / "trace.jsonl")
    assert tracer.export(jsonl_path) == 2
    events = read_jsonl(jsonl_path)
    assert {e["name"]: bool(e.get("unfinished")) for e in events} == {
        "closed": False, "still.open": True,
    }

    chrome_path = str(tmp_path / "trace.json")
    assert tracer.export(chrome_path) == 2
    chrome_events = read_chrome(chrome_path)
    unfinished = next(e for e in chrome_events if e["name"] == "still.open")
    assert unfinished["args"]["unfinished"] is True
    assert unfinished["ph"] == "X" and unfinished["dur"] > 0
    open_span.__exit__(None, None, None)


def test_fake_clock_makes_durations_and_order_deterministic():
    """The recorder's ``clock`` pins every ts/dur: two identically
    shaped traces are equal record for record, no real time involved."""
    def run():
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            tracer.emit("worker.start")
        return tracer.events

    first, second = run(), run()
    assert first == second
    # clock ticks: outer start=1, inner start=2, inner end=3, event=4,
    # outer end=5; records are written as they complete
    assert [e.get("name", e["kind"]) for e in first] == [
        "inner", "worker.start", "outer",
    ]
    assert [e["ts"] for e in first] == [2.0, 4.0, 1.0]
    assert [e.get("dur") for e in first] == [1.0, None, 4.0]


def test_null_tracer_is_inert():
    assert NULL_OBS.tracer is NULL_RECORDER
    assert NULL_RECORDER.enabled is False
    span = NULL_RECORDER.span("anything", k=1)
    with span:
        pass
    assert NULL_RECORDER.span("other") is span  # shared no-op
    assert NULL_RECORDER.events == ()
    with pytest.raises(ValueError):
        NULL_RECORDER.export("/tmp/nope.json")
