"""Span-stream attribution: tree reconstruction, self time, collapsed
stacks (round-trip), hotspot tables — all over a deterministic fake
clock so durations are exact."""

import os

import pytest

from repro.obs import Recorder
from repro.obs.profile import (
    build_tree, collapsed_stacks, hotspots, read_collapsed, render_hotspots,
    self_time, span_events, total_wall, write_collapsed,
)


def make_tracer():
    t = {"now": 0.0}

    def clock():
        t["now"] += 1.0
        return t["now"]

    return Recorder(clock=clock)


def traced_solver_shape():
    """A trace shaped like a solver run: explore > tree > {meld, sat}.

    With the one-tick fake clock the durations come out as: meld 1,
    sat_check 1, first tree 5 (self 3), second tree 1, explore 9
    (self 3); total wall 9.
    """
    tracer = make_tracer()
    with tracer.span("solver.explore"):
        with tracer.span("deriv.tree"):
            with tracer.span("deriv.meld"):
                pass
            with tracer.span("algebra.sat_check"):
                pass
        with tracer.span("deriv.tree"):
            pass
    return tracer.events


def test_build_tree_reconstructs_nesting_from_completion_order():
    roots = build_tree(traced_solver_shape())
    (root,) = roots
    assert root["event"]["name"] == "solver.explore"
    names = [c["event"]["name"] for c in root["children"]]
    assert names == ["deriv.tree", "deriv.tree"]
    first_tree = root["children"][0]
    grandchildren = [c["event"]["name"] for c in first_tree["children"]]
    assert grandchildren == ["deriv.meld", "algebra.sat_check"]
    assert root["children"][1]["children"] == []


def test_self_time_partitions_wall_time_exactly():
    events = traced_solver_shape()
    roots = build_tree(events)

    def all_nodes(nodes):
        for node in nodes:
            yield node
            yield from all_nodes(node["children"])

    attributed = sum(self_time(n) for n in all_nodes(roots))
    assert attributed == pytest.approx(total_wall(events))
    assert total_wall(events) == pytest.approx(9.0)


def test_instants_are_excluded_from_attribution():
    tracer = make_tracer()
    with tracer.span("a"):
        tracer.emit("worker.start")
    assert total_wall(tracer.events) == pytest.approx(2.0)
    (root,) = build_tree(tracer.events)
    assert root["children"] == []


def test_orphans_of_an_unclosed_parent_are_promoted():
    """Depth-1 spans whose parent never finished still get attributed."""
    tracer = make_tracer()
    outer = tracer.span("outer")
    outer.__enter__()
    with tracer.span("inner"):
        pass
    # events (not export_events): the parent is missing entirely
    roots = build_tree(tracer.events)
    assert [r["event"]["name"] for r in roots] == ["inner"]
    outer.__exit__(None, None, None)


def test_collapsed_stack_lines_and_round_trip(tmp_path):
    events = traced_solver_shape()
    lines = collapsed_stacks(events)
    by_stack = dict(
        line.rsplit(" ", 1) for line in lines
    )
    # microsecond-scaled self times per unique stack
    assert by_stack["solver.explore"] == "3000000"
    assert by_stack["solver.explore;deriv.tree"] == "4000000"
    assert by_stack["solver.explore;deriv.tree;deriv.meld"] == "1000000"
    assert by_stack["solver.explore;deriv.tree;algebra.sat_check"] == "1000000"
    assert len(lines) == 4

    path = str(tmp_path / "out.folded")
    assert write_collapsed(events, path) == 4
    parsed = read_collapsed(path)
    assert sorted(parsed) == sorted(
        (tuple(stack.split(";")), int(count))
        for stack, count in by_stack.items()
    )
    # total microseconds round-trips to total traced wall time
    assert sum(count for _, count in parsed) == int(total_wall(events) * 1e6)


def test_collapsed_stack_frames_are_sanitized():
    tracer = make_tracer()
    with tracer.span("weird name;with sep"):
        pass
    (line,) = collapsed_stacks(tracer.events)
    assert line.startswith("weird_name:with_sep ")


def test_read_collapsed_rejects_malformed(tmp_path):
    path = tmp_path / "bad.folded"
    path.write_text("justonefield\n")
    with pytest.raises(ValueError):
        read_collapsed(str(path))
    path.write_text("a;b notanumber\n")
    with pytest.raises(ValueError):
        read_collapsed(str(path))


def test_hotspots_rank_by_self_time_and_cover_wall():
    events = traced_solver_shape()
    rows = hotspots(events, k=10)
    assert [r["name"] for r in rows] == [
        "deriv.tree", "solver.explore", "algebra.sat_check", "deriv.meld",
    ]
    tree = rows[0]
    assert tree["self_s"] == pytest.approx(4.0)
    assert tree["count"] == 2
    assert tree["pct"] == pytest.approx(100.0 * 4.0 / 9.0)
    assert sum(r["pct"] for r in rows) == pytest.approx(100.0)


def test_hotspots_truncate_to_k():
    events = traced_solver_shape()
    rows = hotspots(events, k=2)
    assert len(rows) == 2
    assert rows[0]["name"] == "deriv.tree"


def attributed_pct(events, k=10):
    """The share of traced wall time the top-``k`` hotspot rows cover."""
    wall = total_wall(events)
    covered = sum(r["self_s"] for r in hotspots(events, k=k))
    return 100.0 * covered / wall if wall else 0.0


def test_hotspots_attribute_at_least_90_percent():
    """The acceptance bar: the top-K table accounts for >= 90% of the
    traced wall time (here exactly 100%, since self times partition)."""
    events = traced_solver_shape()
    assert attributed_pct(events) >= 90.0
    assert total_wall(events) == pytest.approx(9.0)
    assert len(span_events(events)) == 5
    assert hotspots(events)[0]["name"] == "deriv.tree"


def test_hotspots_on_empty_trace():
    assert total_wall([]) == 0.0
    assert attributed_pct([]) == 0.0
    assert hotspots([]) == []


def test_render_hotspots_mentions_every_top_span():
    text = render_hotspots(traced_solver_shape())
    for name in ("deriv.tree", "solver.explore", "algebra.sat_check",
                 "deriv.meld"):
        assert name in text
    assert "total traced wall" in text


def test_unfinished_flush_still_attributes(tmp_path):
    """A trace exported mid-run (unfinished spans flushed) keeps the
    parent/child attribution; the flushed parent absorbs self time."""
    tracer = make_tracer()
    outer = tracer.span("solver.explore")
    outer.__enter__()
    with tracer.span("deriv.tree"):
        pass
    events = tracer.export_events()
    rows = {r["name"]: r for r in hotspots(events)}
    assert set(rows) == {"solver.explore", "deriv.tree"}
    assert rows["solver.explore"]["self_s"] > 0
    assert sum(r["pct"] for r in rows.values()) == pytest.approx(100.0)
    outer.__exit__(None, None, None)


def merged_two_pid_stream():
    """Two workers' identically shaped traces, interleaved the way a
    flight merge interleaves them (by timestamp across processes)."""
    def worker(pid, t0):
        return [
            {"v": 1, "kind": "span", "name": "deriv.tree", "ts": t0 + 1.0,
             "dur": 2.0, "depth": 1, "args": {}, "pid": pid},
            {"v": 1, "kind": "span", "name": "solver.explore", "ts": t0,
             "dur": 4.0, "depth": 0, "args": {}, "pid": pid},
        ]

    a, b = worker(100, 10.0), worker(200, 10.5)
    # interleaved: a's child, b's child, a's root, b's root
    return [a[0], b[0], a[1], b[1]]


def test_build_tree_keys_parenting_by_pid():
    """Regression: in a merged multi-worker stream, completion-order
    parenting must not adopt one process's spans into another's tree.
    Here each pid's ``deriv.tree`` completes right before the *other*
    pid's root would claim it if pids were ignored."""
    roots = build_tree(merged_two_pid_stream())
    assert len(roots) == 2
    for root in roots:
        assert root["event"]["name"] == "solver.explore"
        (child,) = root["children"]
        assert child["event"]["name"] == "deriv.tree"
        # the child belongs to its own process, not the interleaved one
        assert child["event"]["pid"] == root["event"]["pid"]


def test_hotspots_split_rows_per_pid():
    rows = hotspots(merged_two_pid_stream())
    by_key = {(r["name"], r.get("pid")): r for r in rows}
    assert set(by_key) == {
        ("solver.explore", 100), ("solver.explore", 200),
        ("deriv.tree", 100), ("deriv.tree", 200),
    }
    # each worker's self times stay exact: 2s explore, 2s tree, per pid
    for key, row in by_key.items():
        assert row["self_s"] == pytest.approx(2.0), key
    assert sum(r["pct"] for r in rows) == pytest.approx(100.0)
    text = render_hotspots(merged_two_pid_stream())
    assert "[pid 100]" in text and "[pid 200]" in text


def test_collapsed_stacks_get_a_pid_lane_frame():
    lines = collapsed_stacks(merged_two_pid_stream())
    stacks = {line.rsplit(" ", 1)[0] for line in lines}
    assert stacks == {
        "pid:100;solver.explore", "pid:100;solver.explore;deriv.tree",
        "pid:200;solver.explore", "pid:200;solver.explore;deriv.tree",
    }


def test_pidless_streams_keep_the_single_lane_shape():
    """A stream from one process (every record carries the same pid,
    as the in-process recorder writes it) or from none means no
    synthetic lane frames and no pid column."""
    events = traced_solver_shape()
    assert {e["pid"] for e in events} == {os.getpid()}
    pidless = [{k: v for k, v in e.items() if k != "pid"} for e in events]
    for stream in (events, pidless):
        assert all("pid" not in r for r in hotspots(stream))
        assert all(not line.startswith("pid:")
                   for line in collapsed_stacks(stream))


def test_real_solver_trace_round_trips(tmp_path):
    """End to end: a real traced solve -> collapsed stacks -> file ->
    parse, with >= 90% of wall attributed to named spans."""
    from repro.alphabet import IntervalAlgebra
    from repro.obs import Observability
    from repro.regex import RegexBuilder, parse
    from repro.solver import RegexSolver

    builder = RegexBuilder(IntervalAlgebra(127))
    solver = RegexSolver(builder, obs=Observability.tracing())
    result = solver.is_satisfiable(parse(builder, "(.*a.{6})&(.*b.{6})"))
    assert result.is_unsat
    events = solver.obs.tracer.events

    assert attributed_pct(events) >= 90.0
    assert total_wall(events) > 0

    path = str(tmp_path / "solve.folded")
    lines = write_collapsed(events, path)
    assert lines >= 1
    parsed = read_collapsed(path)
    assert all(count > 0 for _, count in parsed)
    names = {frame for stack, _ in parsed for frame in stack}
    assert "solver.explore" in names and "deriv.tree" in names
