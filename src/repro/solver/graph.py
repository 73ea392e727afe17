"""The solver's regex reachability graph ``G = (V, E, F, C)`` (§5).

Vertices are regexes seen so far; an edge ``(v, w)`` records that ``w``
is a leaf of ``delta_dnf(v)``.  The derived sets are:

* ``F`` — final (nullable) vertices;
* ``C`` — closed vertices: all outgoing edges have been added;
* ``Alive`` — vertices from which some final vertex is reachable;
* ``Dead`` — vertices ``v`` with ``E*(v) ⊆ C \\ Alive``: fully explored
  dead ends, whose status can never change.

Both ``Alive`` and ``Dead`` are *permanent*: aliveness is monotone, and
a vertex can only be dead once every reachable vertex is closed, after
which no new edge can touch its reachable set.  The graph is therefore
maintained globally and persistently across queries exactly as the
paper prescribes — deadness proved while solving one constraint
short-circuits any later constraint that reaches the same regex (the
``bot`` rule).

The graph treats vertices as opaque hashable objects except for the
finality predicate supplied by the caller (for regexes: nullability).
"""

from repro.obs import NULL_OBS


class RegexGraph:
    """Incrementally built reachability graph with Alive/Dead marking."""

    def __init__(self, is_final, obs=None):
        self._is_final = is_final
        self._succ = {}
        self._pred = {}
        self._final = set()
        self._closed = set()
        self._alive = set()
        self._dead = set()
        #: counters reported by benchmark harnesses
        self.edges_added = 0
        self._obs = obs if obs is not None else NULL_OBS
        #: bound ``tracer.span`` when tracing is live, else None
        self._span = self._obs.tracer.span if self._obs.tracer.enabled else None
        self._obs.metrics.scope("graph").read_from(self._counters)

    def _counters(self):
        """The ``graph`` scope's values, read at snapshot time."""
        return {
            "updates": len(self._closed),
            "edges": self.edges_added,
            "dead_marked": len(self._dead),
        }

    # -- structure ------------------------------------------------------------

    def add_vertex(self, vertex):
        """Register a vertex (idempotent); classifies finality."""
        if vertex in self._succ:
            return
        self._succ[vertex] = set()
        self._pred[vertex] = set()
        if self._is_final(vertex):
            self._final.add(vertex)
            self._mark_alive(vertex)

    def __contains__(self, vertex):
        return vertex in self._succ

    def __len__(self):
        return len(self._succ)

    @property
    def vertices(self):
        return self._succ.keys()

    def successors(self, vertex):
        return self._succ.get(vertex, set())

    def update(self, vertex, targets):
        """The ``upd`` rule (Figure 3b): add all derivative edges of
        ``vertex`` and mark it closed.  No effect if already closed."""
        self.add_vertex(vertex)
        if vertex in self._closed:
            return
        if self._span is not None:
            with self._span("graph.update", targets=len(targets)):
                self._update(vertex, targets)
        else:
            self._update(vertex, targets)

    def _update(self, vertex, targets):
        for target in targets:
            self.add_vertex(target)
            if target not in self._succ[vertex]:
                self._succ[vertex].add(target)
                self._pred[target].add(vertex)
                self.edges_added += 1
            if target in self._alive:
                self._mark_alive(vertex)
        self._closed.add(vertex)

    # -- alive ------------------------------------------------------------------

    def _mark_alive(self, vertex):
        """Propagate aliveness backwards through predecessors."""
        stack = [vertex]
        while stack:
            node = stack.pop()
            if node in self._alive:
                continue
            self._alive.add(node)
            stack.extend(
                p for p in self._pred.get(node, ()) if p not in self._alive
            )

    def is_final(self, vertex):
        return vertex in self._final

    def is_closed(self, vertex):
        return vertex in self._closed

    def is_alive(self, vertex):
        return vertex in self._alive

    # -- dead --------------------------------------------------------------------

    def is_dead(self, vertex):
        """True iff every vertex reachable from ``vertex`` is closed and
        not alive.  Positive answers are cached (deadness is permanent).
        """
        if vertex in self._dead:
            return True
        if vertex in self._alive or vertex not in self._succ:
            return False
        visited = set()
        stack = [vertex]
        while stack:
            node = stack.pop()
            if node in visited or node in self._dead:
                continue
            if node in self._alive or node not in self._closed:
                return False
            visited.add(node)
            stack.extend(self._succ[node])
        # the entire reachable set is closed and lifeless: all dead
        self._dead.update(visited)
        return True

    def classify(self, vertex):
        """Membership flags of one vertex across the derived sets (the
        provenance layer's narratives print these)."""
        return {
            "final": vertex in self._final,
            "closed": vertex in self._closed,
            "alive": vertex in self._alive,
            "dead": vertex in self._dead,
        }

    @property
    def dead_count(self):
        return len(self._dead)

    @property
    def edge_count(self):
        """Edges currently in the graph.  Unlike ``edges_added`` (a
        monotone counter that keeps counting retired edges), this is a
        level and shrinks under :meth:`compact`."""
        return sum(len(targets) for targets in self._succ.values())

    def compact(self, keep):
        """Drop every vertex failing the ``keep`` predicate and rebuild.

        The caller must pass a *successor-closed* keep set (the
        lifecycle layer's mark phase guarantees this): then a kept
        closed vertex keeps all its edges, so the cached Final, Closed,
        Alive and Dead facts remain valid verbatim on the kept
        subgraph; only the predecessor index is rebuilt from the kept
        edges.  ``edges_added`` stays monotone.  Returns the number of
        dropped vertices.
        """
        kept = {v for v in self._succ if keep(v)}
        dropped = len(self._succ) - len(kept)
        if not dropped:
            return 0
        succ = {v: {w for w in self._succ[v] if w in kept} for v in kept}
        pred = {v: set() for v in kept}
        for v, targets in succ.items():
            for w in targets:
                pred[w].add(v)
        self._succ = succ
        self._pred = pred
        self._final &= kept
        self._closed &= kept
        self._alive &= kept
        self._dead &= kept
        return dropped

    def stats(self):
        """Summary counters for reporting."""
        return {
            "vertices": len(self._succ),
            "edges": self.edges_added,
            "final": len(self._final),
            "closed": len(self._closed),
            "alive": len(self._alive),
            "dead": len(self._dead),
        }
