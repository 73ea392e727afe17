"""Rendering derivative graphs (the paper's Figure 2).

Text and Graphviz-dot output for the derivative transition structure
of a regex (states = regexes, edges labelled with guard predicates —
Figure 2's view) and for verdict explanations.  Figure 5's symbolic
Boolean automaton has no renderer: the states drawn here are Boolean
combinations of the atoms that
:func:`repro.verify.metamorphic.reachable_atoms` collects, which stand
in for its states.

Purely presentational: used by examples and docs, tested for shape.
"""

from repro.derivatives.condtree import DerivativeEngine
from repro.regex.printer import render_pred, to_pattern


def derivative_graph(builder, root, max_states=200):
    """Explore the derivative graph from ``root``.

    Returns ``(states, edges)`` where states is a list of regexes in
    discovery order and edges is a list of ``(source, guard, target)``.
    """
    engine = DerivativeEngine(builder)
    states = [root]
    seen = {root}
    edges = []
    frontier = [root]
    while frontier:
        state = frontier.pop(0)
        for guard, leaves in engine.transitions(state):
            target = builder.union(list(leaves))
            if target is builder.empty:
                continue
            edges.append((state, guard, target))
            if target not in seen:
                if len(seen) >= max_states:
                    return states, edges
                seen.add(target)
                states.append(target)
                frontier.append(target)
    return states, edges


def graph_to_text(builder, root, max_states=200):
    """A Figure 2-style textual rendering of the derivative graph."""
    algebra = builder.algebra
    states, edges = derivative_graph(builder, root, max_states)
    index = {state: i for i, state in enumerate(states)}
    lines = []
    for i, state in enumerate(states):
        marker = "((%d))" if state.nullable else "(%d)"
        lines.append(
            "%s %s" % (marker % i, to_pattern(state, algebra))
        )
    for source, guard, target in edges:
        lines.append(
            "  %d --[%s]--> %d"
            % (index[source], render_pred(guard, algebra), index[target])
        )
    return "\n".join(lines)


def graph_to_dot(builder, root, max_states=200, name="derivatives"):
    """Graphviz dot output; final states get double circles, exactly
    like the paper's figures."""
    algebra = builder.algebra
    states, edges = derivative_graph(builder, root, max_states)
    index = {state: i for i, state in enumerate(states)}
    lines = ["digraph %s {" % name, "  rankdir=LR;"]
    for i, state in enumerate(states):
        shape = "doublecircle" if state.nullable else "circle"
        label = to_pattern(state, algebra).replace("\\", "\\\\").replace('"', '\\"')
        lines.append('  n%d [shape=%s, label="%s"];' % (i, shape, label))
    for source, guard, target in edges:
        label = render_pred(guard, algebra).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(
            '  n%d -> n%d [label="%s"];' % (index[source], index[target], label)
        )
    lines.append("}")
    return "\n".join(lines)


def render_explanation(explanation, name="explanation"):
    """Graphviz dot view of a verdict's provenance.

    For sat: the explored states along the witness path, with the path
    edges highlighted (bold red, labelled ``guard / chosen char``).
    For unsat: the whole explored closure — every state a plain circle
    (none can be nullable), dead states filled gray, bottom rows drawn
    as dashed edges into a single ``⊥`` sink proving the cover is
    exhaustive.  Unknown/truncated explanations render as a one-node
    note so callers need not special-case them.
    """
    algebra = explanation.algebra
    lines = ["digraph %s {" % name, "  rankdir=LR;"]

    def esc(text):
        return text.replace("\\", "\\\\").replace('"', '\\"')

    if explanation.kind not in ("sat", "unsat"):
        lines.append('  note [shape=box, label="%s: %s"];' % (
            explanation.kind, esc(explanation.reason or "no certificate"),
        ))
        lines.append("}")
        return "\n".join(lines)

    index = {state: i for i, state in enumerate(explanation.states)}
    for state, i in index.items():
        shape = "doublecircle" if state.nullable else "circle"
        attrs = ['shape=%s' % shape,
                 'label="%s"' % esc(to_pattern(state, algebra))]
        if state is explanation.root:
            attrs.append("penwidth=2")
        if explanation.flags.get(state, {}).get("dead"):
            attrs.append('style=filled, fillcolor=gray85')
        lines.append("  n%d [%s];" % (i, ", ".join(attrs)))

    if explanation.kind == "sat":
        for state, guard, char, successor in explanation.steps:
            lines.append(
                '  n%d -> n%d [label="%s / %s", color=red, penwidth=2];'
                % (index[state], index[successor],
                   esc(render_pred(guard, algebra)), esc(repr(char)))
            )
    else:
        bottom_used = False
        for state in explanation.states:
            for guard, targets in explanation.rows.get(state, ()):
                label = esc(render_pred(guard, algebra))
                if not targets:
                    bottom_used = True
                    lines.append(
                        '  n%d -> bot [label="%s", style=dashed];'
                        % (index[state], label)
                    )
                    continue
                for target in targets:
                    lines.append('  n%d -> n%d [label="%s"];'
                                 % (index[state], index[target], label))
        if bottom_used:
            lines.append('  bot [shape=point, label="", width=0.15];')
    lines.append("}")
    return "\n".join(lines)

