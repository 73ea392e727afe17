"""The regex reachability graph: Alive/Dead semantics of Section 5."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver.graph import RegexGraph


@pytest.fixture
def graph():
    # vertices are strings; "final" vertices end with '!'
    return RegexGraph(is_final=lambda v: v.endswith("!"))


def test_final_vertex_is_alive(graph):
    graph.add_vertex("win!")
    assert graph.is_alive("win!")
    assert graph.is_final("win!")


def test_alive_propagates_backwards(graph):
    graph.add_vertex("a")
    graph.update("a", ["b"])
    graph.update("b", ["c!"])
    assert graph.is_alive("a") and graph.is_alive("b")


def test_alive_propagates_through_late_edges(graph):
    graph.add_vertex("a")
    graph.update("a", ["b"])
    assert not graph.is_alive("a")
    graph.update("b", ["ok!"])
    assert graph.is_alive("a")


def test_dead_requires_closed(graph):
    graph.add_vertex("a")
    graph.update("a", ["b"])
    # b is not closed yet: a cannot be declared dead
    assert not graph.is_dead("a")
    graph.update("b", [])
    assert graph.is_dead("a") and graph.is_dead("b")


def test_dead_cycle(graph):
    graph.add_vertex("x")
    graph.update("x", ["y"])
    graph.update("y", ["x"])
    assert graph.is_dead("x") and graph.is_dead("y")


def test_alive_cycle_not_dead(graph):
    graph.add_vertex("x")
    graph.update("x", ["y"])
    graph.update("y", ["x", "exit!"])
    assert not graph.is_dead("x")
    assert graph.is_alive("x")


def test_dead_is_cached_and_permanent(graph):
    graph.add_vertex("a")
    graph.update("a", [])
    assert graph.is_dead("a")
    assert graph.dead_count == 1
    assert graph.is_dead("a")


def test_update_is_idempotent_once_closed(graph):
    graph.add_vertex("a")
    graph.update("a", ["b"])
    graph.update("a", ["c!"])  # ignored: a is closed
    assert "c!" not in graph.successors("a")


def test_unknown_vertex_not_dead(graph):
    assert not graph.is_dead("nowhere")


def test_stats(graph):
    graph.add_vertex("a")
    graph.update("a", ["b!", "c"])
    stats = graph.stats()
    assert stats["vertices"] == 3
    assert stats["edges"] == 2
    assert stats["final"] == 1
    assert stats["closed"] == 1
    assert stats["alive"] >= 2


def test_len_and_contains(graph):
    graph.add_vertex("v")
    assert "v" in graph and len(graph) == 1


# -- Alive/Dead against reachability on random digraphs -----------------------


def reachable(edges, vertex):
    """Every vertex reachable from ``vertex`` (itself included)."""
    seen = {vertex}
    stack = [vertex]
    while stack:
        for nxt in edges.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def check_marks(graph, edges, finals, ever_dead):
    """Alive and Dead of every vertex in ``graph`` match their
    definitions over ``edges`` (the out-edges of the closed vertices),
    and no vertex once answered dead stops being dead."""
    closed = set(edges)
    for vertex in graph.vertices:
        reach = reachable(edges, vertex)
        alive = bool(reach & finals)
        assert graph.is_alive(vertex) == alive
        dead = reach <= closed and not alive
        assert graph.is_dead(vertex) == dead
        if dead:
            ever_dead.add(vertex)
    assert all(graph.is_dead(v) for v in ever_dead)


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 12))
    vertices = st.sampled_from(range(n))
    succ = [draw(st.sets(vertices, max_size=3)) for _ in range(n)]
    finals = draw(st.sets(vertices, max_size=3))
    order = draw(st.permutations(range(n)))
    updated = order[:draw(st.integers(0, n))]
    roots = draw(st.sets(vertices))
    return succ, finals, updated, roots


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_alive_and_dead_match_reachability(case):
    succ, finals, updated, roots = case
    graph = RegexGraph(is_final=finals.__contains__)
    edges = {}
    ever_dead = set()
    for vertex in updated:
        graph.update(vertex, succ[vertex])
        edges[vertex] = succ[vertex]
        assert set(graph.vertices) == set(edges).union(*edges.values())
        check_marks(graph, edges, finals, ever_dead)

    # compaction with a successor-closed keep set keeps every fact
    keep = set()
    for root in roots & set(graph.vertices):
        keep |= reachable(edges, root)
    before = len(graph)
    assert graph.compact(keep.__contains__) == before - len(keep)
    assert set(graph.vertices) == keep
    edges = {v: targets for v, targets in edges.items() if v in keep}
    assert graph.edge_count == sum(len(t) for t in edges.values())
    assert all(graph.is_closed(v) == (v in edges) for v in keep)
    check_marks(graph, edges, finals, ever_dead & keep)
