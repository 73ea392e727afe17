"""Derivative-graph rendering."""

from repro.regex import parse
from repro.visualize import derivative_graph, graph_to_dot, graph_to_text


def test_derivative_graph_structure(ascii_builder):
    b = ascii_builder
    root = parse(b, ".*01.*")
    states, edges = derivative_graph(b, root)
    assert root in states
    assert parse(b, "1.*|.*01.*") in states or any(
        s.nullable for s in states
    )
    sources = {s for s, _, _ in edges}
    assert root in sources


def test_graph_text_marks_finals(ascii_builder):
    b = ascii_builder
    text = graph_to_text(b, parse(b, "ab"))
    assert "((" in text       # a final state is double-marked
    assert "--[" in text      # at least one labelled edge


def test_graph_dot_shape(ascii_builder):
    b = ascii_builder
    dot = graph_to_dot(b, parse(b, "(.*0.*)&~(.*01.*)"))
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert dot.rstrip().endswith("}")


def test_graph_respects_state_cap(ascii_builder):
    b = ascii_builder
    states, _ = derivative_graph(b, parse(b, "~(.*a.{10})"), max_states=5)
    assert len(states) <= 5

