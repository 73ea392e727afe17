"""Span-record attribution: collapsed stacks and self-time hotspots.

The span records of a :class:`~repro.obs.events.Recorder` stream (its
``kind: "span"`` records; events and heartbeats attribute nothing)
turn into *attribution* — where the traced wall time actually went:

* :func:`build_tree` reconstructs the span forest from completion order
  and depth (children always finish before their parent in a
  single-threaded trace, so no interval arithmetic is needed);
* :func:`collapsed_stacks` renders the forest in the collapsed-stack
  format consumed by ``flamegraph.pl`` and https://speedscope.app
  (``root;child;leaf <microseconds>``, one line per unique stack);
* :func:`hotspots` aggregates per-span-name *self* time (duration minus
  time spent in child spans) into the top-K table the CLI prints for
  ``--profile``.

Self times partition the traced wall time exactly: every root span's
duration is distributed over its subtree, so the hotspot table sums to
100% of traced wall time (gaps inside a span are charged to that
span's self time — the correct reading for "this phase needs spans
underneath it").

Every record carries its process's ``pid``.  A stream from one process
renders as one lane; only a stream merged from several processes gets
per-pid trees, ``pid:<N>`` stack frames and per-pid hotspot rows.
"""


def span_events(events):
    """The span records (events and heartbeats attribute nothing)."""
    return [e for e in events if e.get("kind") == "span"]


def _multi_pid(spans):
    """True when ``spans`` come from more than one process."""
    return len({e.get("pid") for e in spans}) > 1


def build_tree(events):
    """Reconstruct the span forest from a record stream.

    Span records arrive in completion order with their nesting
    ``depth``; in a single-threaded trace a span at depth ``d`` is the
    parent of every not-yet-claimed completed span at depth ``d+1``.  Returns a list of
    root nodes ``{"event": e, "children": [...]}``; orphans whose parent
    never finished (and was not flushed) are promoted to roots so their
    time is still attributed.

    A *merged* multi-worker stream interleaves several independent
    single-threaded traces; spans are grouped by ``pid`` and each
    process's forest is reconstructed separately (completion-order
    parenting across pids would adopt one worker's spans into another's
    tree and corrupt every self time downstream).
    """
    by_pid = {}
    lanes = []
    for event in span_events(events):
        pid = event.get("pid")
        lane = by_pid.get(pid)
        if lane is None:
            lane = by_pid[pid] = []
            lanes.append(pid)
        lane.append(event)
    roots = []
    for pid in lanes:
        roots.extend(_build_tree_lane(by_pid[pid]))
    return roots


def _build_tree_lane(events):
    """The single-stream reconstruction over one pid's events."""
    pending = {}
    roots = []
    for event in events:
        depth = event["depth"]
        node = {"event": event, "children": pending.pop(depth + 1, [])}
        if depth == 0:
            roots.append(node)
        else:
            pending.setdefault(depth, []).append(node)
    for depth in sorted(pending):
        roots.extend(pending[depth])
    return roots


def iter_nodes(roots):
    """All nodes of the forest, parents before children."""
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node["children"]))


def self_time(node):
    """The node's duration minus its children's durations, floored at 0
    (a child flushed as unfinished can overshoot its parent slightly)."""
    children = sum(c["event"]["dur"] for c in node["children"])
    return max(node["event"]["dur"] - children, 0.0)


def total_wall(events):
    """Total traced wall time: the sum of root-span durations."""
    return sum(n["event"]["dur"] for n in build_tree(events))


def _frame(name):
    """A span name as a collapsed-stack frame: no separators, no spaces."""
    return str(name).replace(";", ":").replace(" ", "_") or "(anonymous)"


def _root_path(node, lanes):
    """A root node's stack path; with ``lanes`` (a multi-process
    stream) it gets a synthetic ``pid:<N>`` lane frame so merged
    flamegraphs keep each worker's stacks separate instead of folding
    them together."""
    event = node["event"]
    frame = (_frame(event["name"]),)
    if not lanes:
        return frame
    return ("pid:%s" % event.get("pid"),) + frame


def collapsed_stacks(events, scale=1e6):
    """The trace in collapsed-stack format, self time as the sample count.

    Returns a list of ``"frame;frame;... <count>"`` lines, one per
    unique stack, where the count is the stack's aggregated self time in
    microseconds (``scale=1e6``) rounded to an integer — the unit-less
    integer format ``flamegraph.pl`` and speedscope both accept.  Stacks
    whose rounded self time is zero are dropped.
    """
    weights = {}
    lanes = _multi_pid(span_events(events))
    stack = [(node, _root_path(node, lanes))
             for node in reversed(build_tree(events))]
    while stack:
        node, path = stack.pop()
        weights[path] = weights.get(path, 0.0) + self_time(node)
        for child in reversed(node["children"]):
            stack.append((child, path + (_frame(child["event"]["name"]),)))
    lines = []
    for path in sorted(weights):
        count = int(round(weights[path] * scale))
        if count > 0:
            lines.append("%s %d" % (";".join(path), count))
    return lines


def write_collapsed(events, path):
    """Write :func:`collapsed_stacks` lines to ``path``; returns the
    number of stack lines written."""
    lines = collapsed_stacks(events)
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
    return len(lines)


def read_collapsed(path):
    """Parse a collapsed-stack file back into ``[(frames, count), ...]``.

    Raises ``ValueError`` on a malformed line (the shape flamegraph.pl
    would reject too).
    """
    out = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            stack, sep, count = line.rpartition(" ")
            if not sep or not stack:
                raise ValueError("malformed collapsed-stack line: %r" % line)
            out.append((tuple(stack.split(";")), int(count)))
    return out


def hotspots(events, k=10):
    """Top-``k`` spans by aggregated self time.

    Returns a list of dicts ``{"name", "self_s", "count", "pct"}``
    sorted by descending self time, where ``pct`` is the share of total
    traced wall time; the shares of *all* spans (not just the returned
    top-k) sum to 100 by construction.

    In a stream merged from several processes spans aggregate per
    ``(name, pid)`` and the rows carry the pid — one hot span name is
    otherwise indistinguishable from N workers each mildly warm, and a
    per-worker row is what localizes a single wedged process.
    """
    totals = {}
    wall = 0.0
    lanes = _multi_pid(span_events(events))
    for node in iter_nodes(build_tree(events)):
        event = node["event"]
        if event["depth"] == 0:
            wall += event["dur"]
        key = (event["name"], event.get("pid") if lanes else None)
        cell = totals.setdefault(key, [0.0, 0])
        cell[0] += self_time(node)
        cell[1] += 1
    rows = []
    for (name, pid), cell in totals.items():
        row = {
            "name": name,
            "self_s": cell[0],
            "count": cell[1],
            "pct": 100.0 * cell[0] / wall if wall else 0.0,
        }
        if pid is not None:
            row["pid"] = pid
        rows.append(row)
    rows.sort(key=lambda r: (-r["self_s"], r["name"], r.get("pid") or 0))
    return rows[:k]


def render_hotspots(events, k=10):
    """The top-``k`` self-time table as text (the ``--profile`` output)."""
    rows = hotspots(events, k=k)
    wall = total_wall(events)
    lines = ["%-28s %10s %8s %7s" % ("span", "self(s)", "calls", "%wall")]
    for row in rows:
        label = row["name"]
        if "pid" in row:
            label = "%s [pid %s]" % (label, row["pid"])
        lines.append("%-28s %10.4f %8d %6.1f%%" % (
            label, row["self_s"], row["count"], row["pct"],
        ))
    covered = sum(r["pct"] for r in rows)
    lines.append("total traced wall: %.4fs (%.1f%% attributed to top %d spans)"
                 % (wall, covered, len(rows)))
    return "\n".join(lines)

