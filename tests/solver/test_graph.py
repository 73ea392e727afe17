"""The regex reachability graph: Alive/Dead semantics of Section 5."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver.graph import RegexGraph


class Vertex:
    """A test vertex: an integer ``uid`` and nothing the graph may hash,
    so any table keyed by the vertex itself fails the suite."""

    __hash__ = None

    def __init__(self, uid, final=False):
        self.uid = uid
        self.final = final

    def __repr__(self):
        return "Vertex(%d%s)" % (self.uid, ", final" if self.final else "")


@pytest.fixture
def graph():
    return RegexGraph(is_final=lambda v: v.final)


@pytest.fixture
def v():
    """Named vertices, one per name; a name ending in '!' is final."""
    made = {}

    def vertex(name):
        if name not in made:
            made[name] = Vertex(len(made), final=name.endswith("!"))
        return made[name]

    return vertex


def test_final_vertex_is_alive(graph, v):
    graph.add_vertex(v("win!"))
    flags = graph.classify(v("win!"))
    assert flags["alive"] and flags["final"]


def test_alive_propagates_backwards(graph, v):
    graph.add_vertex(v("a"))
    graph.update(v("a"), [v("b")])
    graph.update(v("b"), [v("c!")])
    assert graph.classify(v("a"))["alive"]
    assert graph.classify(v("b"))["alive"]


def test_alive_propagates_through_late_edges(graph, v):
    graph.add_vertex(v("a"))
    graph.update(v("a"), [v("b")])
    assert not graph.classify(v("a"))["alive"]
    graph.update(v("b"), [v("ok!")])
    assert graph.classify(v("a"))["alive"]


def test_dead_requires_closed(graph, v):
    graph.add_vertex(v("a"))
    graph.update(v("a"), [v("b")])
    # b is not closed yet: a cannot be declared dead
    assert not graph.is_dead(v("a"))
    graph.update(v("b"), [])
    assert graph.is_dead(v("a")) and graph.is_dead(v("b"))


def test_dead_cycle(graph, v):
    graph.add_vertex(v("x"))
    graph.update(v("x"), [v("y")])
    graph.update(v("y"), [v("x")])
    assert graph.is_dead(v("x")) and graph.is_dead(v("y"))


def test_alive_cycle_not_dead(graph, v):
    graph.add_vertex(v("x"))
    graph.update(v("x"), [v("y")])
    graph.update(v("y"), [v("x"), v("exit!")])
    assert not graph.is_dead(v("x"))
    assert graph.classify(v("x"))["alive"]


def test_dead_is_cached_and_permanent(graph, v):
    graph.add_vertex(v("a"))
    graph.update(v("a"), [])
    assert graph.is_dead(v("a"))
    assert graph.stats()["dead"] == 1
    assert graph.is_dead(v("a"))
    assert graph.classify(v("a"))["dead"]


def test_update_is_idempotent_once_closed(graph, v):
    graph.add_vertex(v("a"))
    graph.update(v("a"), [v("b")])
    graph.update(v("a"), [v("c!")])  # ignored: a is closed
    assert graph.successors(v("a")) == [v("b")]
    assert v("c!") not in graph


def test_repeated_targets_are_one_edge(graph, v):
    graph.update(v("a"), [v("b"), v("b"), v("a"), v("b")])
    assert graph.stats()["edges"] == graph.edge_count == 2
    successors = {w.uid for w in graph.successors(v("a"))}
    assert successors == {v("a").uid, v("b").uid}


def test_unknown_vertex_not_dead(graph, v):
    assert not graph.is_dead(v("nowhere"))


def test_stats(graph, v):
    graph.add_vertex(v("a"))
    graph.update(v("a"), [v("b!"), v("c")])
    stats = graph.stats()
    assert stats["vertices"] == 3
    assert stats["edges"] == 2
    assert stats["final"] == 1
    assert stats["closed"] == 1
    assert stats["alive"] >= 2


def test_len_and_contains(graph, v):
    graph.add_vertex(v("v"))
    assert v("v") in graph and len(graph) == 1
    assert v("w") not in graph


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
    definitions over ``edges`` (the out-edges of the closed vertices,
    by uid), and no vertex once answered dead stops being dead."""
    closed = set(edges)
    vertices = {vertex.uid: vertex for vertex in graph.vertices}
    for uid, vertex in vertices.items():
        reach = reachable(edges, uid)
        alive = bool(reach & finals)
        assert graph.classify(vertex)["alive"] == alive
        dead = reach <= closed and not alive
        assert graph.is_dead(vertex) == dead
        if dead:
            ever_dead.add(uid)
    assert all(graph.is_dead(vertices[uid]) for uid in ever_dead)


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
    nodes = [Vertex(uid, final=uid in finals) for uid in range(len(succ))]
    graph = RegexGraph(is_final=lambda vertex: vertex.final)
    edges = {}
    ever_dead = set()
    for uid in updated:
        graph.update(nodes[uid], [nodes[w] for w in succ[uid]])
        edges[uid] = succ[uid]
        assert ({vertex.uid for vertex in graph.vertices}
                == set(edges).union(*edges.values()))
        check_marks(graph, edges, finals, ever_dead)

    # compaction with a successor-closed keep set keeps every fact
    keep = set()
    for root in roots & {vertex.uid for vertex in graph.vertices}:
        keep |= reachable(edges, root)
    before = len(graph)
    assert graph.compact(lambda vertex: vertex.uid in keep) \
        == before - len(keep)
    assert {vertex.uid for vertex in graph.vertices} == keep
    edges = {uid: targets for uid, targets in edges.items() if uid in keep}
    assert graph.edge_count == sum(len(t) for t in edges.values())
    assert all(
        graph.classify(nodes[uid])["closed"] == (uid in edges) for uid in keep
    )
    check_marks(graph, edges, finals, ever_dead & keep)
