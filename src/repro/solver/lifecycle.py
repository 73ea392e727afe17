"""Engine-state lifecycle: cache accounting, pinning, and compaction.

The paper's procedure is fast *because* state persists: hash-consed
regex nodes, interned conditional trees, derivative/meld memo tables,
lazy-DFA transition rows and the solver graph's dead-state cache are
all kept across queries on purpose.  Left alone they also grow without
bound, which a long-lived service cannot afford.  This module makes
that state a managed resource:

* **Accounting** — :meth:`EngineState.cache_sizes` reports entry counts
  and approximate bytes per cache, read in place as the ``cache.*``
  values of the :mod:`repro.obs` metrics registry, which is how
  benchmark snapshots, heartbeats and CLI ``--stats`` see them.

* **Compaction** — :meth:`EngineState.compact` runs a mark-and-rebuild
  pass at a *query boundary*: the live set is the closure of the keep
  roots, pinned regexes and the builder's primordial nodes under
  subterm children, memoized derivative-tree leaves, graph successors
  and registered DFA-row targets; every table is then rebuilt keeping
  only live entries.  Uids are never reused, so node identity stays
  canonical (see DESIGN.md for the soundness argument).  The character
  algebra's operation caches (``algebra_memo``) are dropped whole:
  predicates compare structurally, so nothing live depends on them.

* **Policy** — :class:`CompactionPolicy` trips compaction when the
  total entry count crosses a watermark; :meth:`EngineState.end_query`
  applies it between queries and is a no-op while a :meth:`hold` is
  active (the SMT front end holds the state for the whole formula, so
  per-variable sub-queries never compact mid-solve).
"""

from contextlib import contextmanager

from repro.obs import Observability

#: Rough *shallow* per-entry heap costs (CPython, 64-bit): object header
#: plus slots plus the owning table's key/bucket overhead.  These are
#: deliberately constants — the sizes track growth and trip watermarks;
#: they are not an allocator census.
_BYTES_PER_REGEX = 220
_BYTES_PER_TREE = 140
_BYTES_PER_MEMO = 90
_BYTES_PER_VERTEX = 330
_BYTES_PER_EDGE = 120
_BYTES_PER_ROW = 180


class CompactionPolicy:
    """When to compact: an entry-count watermark checked per query.

    ``max_entries`` bounds :meth:`EngineState.cache_sizes`'s
    ``entries_total``; crossing it triggers compaction at the next
    query boundary.  ``min_retained`` suppresses thrashing: if a
    compaction retires fewer than this many entries, the watermark is
    raised to the post-compaction size plus ``max_entries`` (the live
    set is simply that big; compacting again would burn CPU for
    nothing).
    """

    __slots__ = ("max_entries", "min_retained", "_floor")

    def __init__(self, max_entries=100000, min_retained=256):
        self.max_entries = max_entries
        self.min_retained = min_retained
        self._floor = 0

    def should_compact(self, sizes):
        if self.max_entries is None:
            return False
        return sizes["entries_total"] > self._floor + self.max_entries

    def note_result(self, sizes_after, retired):
        """Adapt the watermark after a compaction (anti-thrash)."""
        if retired < self.min_retained:
            self._floor = sizes_after["entries_total"]


class EngineState:
    """Facade over one builder + derivative engine + graph (+ DFAs).

    The solver layers own their caches; this class owns their
    *lifecycle*: measuring them, compacting them between queries, and
    resetting them.  All mutation happens at query boundaries — callers
    mid-query take :meth:`hold` to fence compaction off.
    """

    def __init__(self, builder, engine=None, graph=None, obs=None,
                 policy=None):
        self.builder = builder
        self.engine = engine
        self.graph = graph
        self.obs = obs if obs is not None else Observability()
        self.policy = policy
        self._dfas = []
        self._pins = {}
        self._root_providers = []
        self._holds = 0
        scope = self.obs.metrics.scope("cache")
        self._c_compactions = scope.counter("compactions")
        self._c_retired = scope.counter("retired_entries")
        scope.read_from(self.cache_sizes)

    # -- wiring ------------------------------------------------------------

    def register_dfa(self, dfa):
        """Track a :class:`~repro.matcher.dfa_cache.LazyDfa` so its
        transition rows are accounted and compacted with the rest."""
        if dfa not in self._dfas:
            self._dfas.append(dfa)

    def add_root_provider(self, provider):
        """Register a callable returning extra mark roots for every
        compaction.  The warm store registers one so its instantiated
        fragment rows stay live: compaction must never evict a node a
        later query can still key into — evicting it would re-intern
        the same pattern to a *new* uid while the fragment's rows keep
        referencing the old node, silently turning warm hits cold (the
        stale-uid resurrection bug; see DESIGN.md compaction
        soundness)."""
        if provider not in self._root_providers:
            self._root_providers.append(provider)

    def pin(self, *regexes):
        """Keep these regexes (and everything reachable from them)
        across compactions until :meth:`unpin`."""
        for regex in regexes:
            self._pins[regex.uid] = regex

    def unpin(self, *regexes):
        for regex in regexes:
            self._pins.pop(regex.uid, None)

    @contextmanager
    def hold(self):
        """Fence compaction off for the duration (reentrant).  The SMT
        front end holds the state across a formula's sub-queries, since
        its atoms keep references into the regex tables."""
        self._holds += 1
        try:
            yield self
        finally:
            self._holds -= 1

    @property
    def held(self):
        return self._holds > 0

    # -- accounting --------------------------------------------------------

    def cache_sizes(self):
        """Entry counts and approximate bytes for every managed cache."""
        sizes = {"regex_nodes": len(self.builder._table)}
        approx = sizes["regex_nodes"] * _BYTES_PER_REGEX
        engine = self.engine
        if engine is not None:
            sizes["deriv_trees"] = len(engine._trees) + len(engine._leaves)
            sizes["deriv_memo"] = len(engine._deriv_memo)
            sizes["meld_memo"] = len(engine._meld_memo)
            approx += (
                sizes["deriv_trees"] * _BYTES_PER_TREE
                + (sizes["deriv_memo"] + sizes["meld_memo"]) * _BYTES_PER_MEMO
            )
        graph = self.graph
        if graph is not None:
            sizes["graph_vertices"] = len(graph)
            sizes["graph_edges"] = graph.edge_count
            approx += (
                sizes["graph_vertices"] * _BYTES_PER_VERTEX
                + sizes["graph_edges"] * _BYTES_PER_EDGE
            )
        if self._dfas:
            sizes["dfa_rows"] = sum(len(d._rows) for d in self._dfas)
            approx += sizes["dfa_rows"] * _BYTES_PER_ROW
        sizes["algebra_memo"] = self.builder.algebra.cache_entries()
        approx += sizes["algebra_memo"] * _BYTES_PER_MEMO
        sizes["entries_total"] = sum(
            v for k, v in sizes.items() if k != "graph_edges"
        )
        sizes["approx_bytes"] = approx
        return sizes

    # -- lifecycle ---------------------------------------------------------

    def end_query(self, keep=()):
        """Query-boundary hook: compact if the policy's watermark
        tripped.  No-op while held or without a policy."""
        if self.held or self.policy is None:
            return None
        if not self.policy.should_compact(self.cache_sizes()):
            return None
        report = self.compact(keep=keep)
        self.policy.note_result(self.cache_sizes(), report["retired"])
        return report

    def compact(self, keep=()):
        """Mark-and-rebuild compaction; only call between queries.

        ``keep`` lists the roots of the current working set (for the
        solver: the query regex).  Everything unreachable from keep,
        pins and the builder's primordial nodes is retired from every
        table.  Returns a report of retired entry counts.
        """
        if self.held:
            raise RuntimeError(
                "cannot compact while the engine state is held"
            )
        events = self.obs.events
        entries_before = (
            self.cache_sizes()["entries_total"] if events.enabled else 0
        )
        live = self._mark(keep)
        report = {"live_regexes": len(live)}
        retired = self.builder_compact(live)
        report["regex_nodes"] = retired
        engine = self.engine
        if engine is not None:
            report["deriv_entries"] = engine.compact(live)
            retired += report["deriv_entries"]
        graph = self.graph
        if graph is not None:
            report["graph_vertices"] = graph.compact(
                lambda v: v.uid in live
            )
            retired += report["graph_vertices"]
        rows = 0
        for dfa in self._dfas:
            rows += dfa.compact(live)
        if self._dfas:
            report["dfa_rows"] = rows
            retired += rows
        algebra = self.builder.algebra
        report["algebra_memo"] = algebra.cache_entries()
        algebra.clear_caches()
        retired += report["algebra_memo"]
        report["retired"] = retired
        self._c_compactions.inc()
        self._c_retired.inc(retired)
        if events.enabled:
            events.emit(
                "cache.compaction", retired=retired,
                entries_before=entries_before,
                entries_after=self.cache_sizes()["entries_total"],
                live_regexes=report["live_regexes"],
            )
        return report

    def reset(self):
        """Drop everything except pins and the primordial nodes."""
        return self.compact(keep=())

    # -- the mark phase ----------------------------------------------------

    def _mark(self, keep):
        """The live set: uid -> node, closed under subterm children,
        memoized derivative-tree leaves, graph successors and DFA-row
        targets of every live node."""
        builder = self.builder
        engine = self.engine
        graph = self.graph
        live = {}
        walked_trees = set()
        stack = [builder.empty, builder.epsilon, builder.dot, builder.full]
        stack.extend(self._pins.values())
        stack.extend(keep)
        for provider in self._root_providers:
            stack.extend(provider())

        def push_tree_leaves(tree):
            tstack = [tree]
            while tstack:
                t = tstack.pop()
                if t.uid in walked_trees:
                    continue
                walked_trees.add(t.uid)
                if t.is_leaf:
                    stack.extend(t.regexes)
                else:
                    tstack.append(t.then)
                    tstack.append(t.other)

        while stack:
            node = stack.pop()
            if node.uid in live:
                continue
            live[node.uid] = node
            stack.extend(node.children)
            if engine is not None:
                tree = engine._deriv_memo.get(node.uid)
                if tree is not None:
                    push_tree_leaves(tree)
            if graph is not None and node in graph:
                stack.extend(graph.successors(node))
            for dfa in self._dfas:
                row = dfa._rows.get(node.uid)
                if row is not None:
                    stack.extend(target for _, target in row)
        return live

    def builder_compact(self, live):
        """Rebuild the builder's interning table over the live set.

        Uids are never reused (``_next_uid`` is untouched), so any
        stale node a caller still holds remains semantically valid —
        it merely stops deduplicating against newly built nodes.
        """
        table = self.builder._table
        kept = {
            key: node for key, node in table.items() if node.uid in live
        }
        retired = len(table) - len(kept)
        self.builder._table = kept
        return retired

    def __repr__(self):
        sizes = self.cache_sizes()
        return "EngineState(entries=%d, ~%dKiB%s)" % (
            sizes["entries_total"], sizes["approx_bytes"] // 1024,
            ", held" if self.held else "",
        )
