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

Every vertex carries an integer ``uid`` that is unique within the graph
(a regex's builder uid), and the graph keys all its tables by it: it
never hashes a vertex.  Beyond the uid, it reads a vertex only through
the finality predicate supplied by the caller (for regexes:
nullability).
"""

from repro.obs import NULL_OBS


class RegexGraph:
    """Incrementally built reachability graph with Alive/Dead marking."""

    def __init__(self, is_final, obs=None):
        self._is_final = is_final
        #: uid -> vertex, for every vertex in the graph
        self._vertex = {}
        #: uid -> successor uids / predecessor uids
        self._succ = {}
        self._pred = {}
        #: the derived sets, as uids
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
        uid = vertex.uid
        if uid not in self._vertex:
            self._add(uid, vertex)

    def _add(self, uid, vertex):
        self._vertex[uid] = vertex
        self._succ[uid] = set()
        self._pred[uid] = set()
        if self._is_final(vertex):
            self._final.add(uid)
            self._mark_alive(uid)

    def __contains__(self, vertex):
        return vertex.uid in self._vertex

    def __len__(self):
        return len(self._vertex)

    @property
    def vertices(self):
        return self._vertex.values()

    def successors(self, vertex):
        vertices = self._vertex
        return [vertices[w] for w in self._succ.get(vertex.uid, ())]

    def update(self, vertex, targets):
        """The ``upd`` rule (Figure 3b): add all derivative edges of
        ``vertex`` and mark it closed.  No effect if already closed.
        ``targets`` may repeat a vertex: edges are kept once per uid."""
        uid = vertex.uid
        if uid not in self._vertex:
            self._add(uid, vertex)
        elif uid in self._closed:
            return
        if self._span is not None:
            with self._span("graph.update") as span:
                self._update(uid, targets)
                # an open vertex has no edges yet, so its successor set
                # now holds exactly the distinct targets
                span.args["targets"] = len(self._succ[uid])
        else:
            self._update(uid, targets)

    def _update(self, uid, targets):
        vertices = self._vertex
        succ = self._succ[uid]
        pred = self._pred
        alive = self._alive
        reaches_alive = False
        for target in targets:
            t = target.uid
            if t not in vertices:
                self._add(t, target)
            if t not in succ:
                succ.add(t)
                pred[t].add(uid)
                self.edges_added += 1
                if t in alive:
                    reaches_alive = True
        self._closed.add(uid)
        if reaches_alive:
            self._mark_alive(uid)

    # -- alive ------------------------------------------------------------------

    def _mark_alive(self, uid):
        """Propagate aliveness backwards through predecessors."""
        alive = self._alive
        pred = self._pred
        stack = [uid]
        while stack:
            node = stack.pop()
            if node in alive:
                continue
            alive.add(node)
            stack.extend(p for p in pred.get(node, ()) if p not in alive)

    # -- dead --------------------------------------------------------------------

    def is_dead(self, vertex):
        """True iff every vertex reachable from ``vertex`` is closed and
        not alive.  Positive answers are cached (deadness is permanent).
        """
        uid = vertex.uid
        dead = self._dead
        if uid in dead:
            return True
        alive = self._alive
        if uid in alive or uid not in self._succ:
            return False
        closed = self._closed
        succ = self._succ
        visited = set()
        stack = [uid]
        while stack:
            node = stack.pop()
            if node in visited or node in dead:
                continue
            if node in alive or node not in closed:
                return False
            visited.add(node)
            stack.extend(succ[node])
        # the entire reachable set is closed and lifeless: all dead
        dead.update(visited)
        return True

    def classify(self, vertex):
        """Membership flags of one vertex across the derived sets (the
        provenance layer's narratives print these)."""
        uid = vertex.uid
        return {
            "final": uid in self._final,
            "closed": uid in self._closed,
            "alive": uid in self._alive,
            "dead": uid in self._dead,
        }

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
        vertices = {
            uid: v for uid, v in self._vertex.items() if keep(v)
        }
        dropped = len(self._vertex) - len(vertices)
        if not dropped:
            return 0
        succ = {
            v: {w for w in self._succ[v] if w in vertices} for v in vertices
        }
        pred = {v: set() for v in vertices}
        for v, targets in succ.items():
            for w in targets:
                pred[w].add(v)
        kept = set(vertices)
        self._vertex = vertices
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
            "vertices": len(self._vertex),
            "edges": self.edges_added,
            "final": len(self._final),
            "closed": len(self._closed),
            "alive": len(self._alive),
            "dead": len(self._dead),
        }
