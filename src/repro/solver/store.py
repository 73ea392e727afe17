"""The cross-query compiled-fragment store.

The decision procedure is fast *because* state persists — hash-consed
regex nodes, interned conditional trees, memoized transition rows — but
until now all of that died with the process: every fresh solver rebuilt
its derivative trees, minterm partitions and lazy-DFA rows from
scratch, even though real validation traffic is zipfian (the same
patterns repeat endlessly).  This module makes the expensive artifacts
a solve produces anyway *portable*:

* :func:`canonical_pattern` — the store key: the printed form of the
  hash-consed root, accepted only when it round-trips (print → parse
  is the identity on the interned AST, so print → parse → print is a
  fixpoint).  Two queries that intern to the same node — however they
  were spelled — share one key; a node whose rendering does not
  round-trip is simply uncacheable, never wrongly cached.
* :func:`build_fragment` / :class:`LazyFragment` — serialize a solved
  pattern's transition rows (guard-table indices plus successor
  indices, in recorded order), its states (a postorder program of
  builder calls) and one table of its distinct guards to a JSON-safe
  dict, and rebuild them state by state against any builder over an
  equivalent algebra.
* :class:`SolverStore` — the keyed collection: lookup/insert with
  hit/miss counters, JSON save/load for shared read-only snapshots
  (serve workers load one on spawn — a warm restart instead of a cold
  rebuild), and :meth:`SolverStore.export_new` so a retiring worker
  can ship only the fragments it learned back to the pool.

Correctness contract (see DESIGN.md "The warm store"):

* a fragment records *facts* about the algebra's derivative relation —
  per-state transition rows — not verdicts; warm replay explores the
  same graph the cold path would build, so verdicts, witnesses and
  certificates are identical by construction;
* the structural program (``code``/``slots``) is the one encoding of a
  fragment's states; capture replays it through :class:`LazyFragment`
  on the capturing builder and discards the fragment unless every state
  decodes to the very node it was taken from — the check runs the route
  warm replay uses, so a fragment is either exact or absent;
* the program means what the smart constructors make of it, so any
  change to a constructor's normal form bumps
  :data:`STORE_SCHEMA_VERSION`;
* a loaded state whose program or rows are malformed (an operand that
  is not an earlier op, a slot, successor or guard index out of range,
  a guard entry that is not canonical) decodes to None and solves cold
  — never a hang, a crash or a wrong automaton;
* row order and successor order are preserved exactly as captured
  (successors uid-sorted at capture), so warm exploration visits
  states in the same order as the capturing cold run;
* each distinct guard is serialized once, as the codepoint ranges
  ``pred_ranges`` writes, in the fragment's ``guards`` table; rows and
  predicate ops refer to it by index.  An entry is decoded through the
  consuming algebra's ``from_ranges`` the first time a query uses it,
  and accepted only when it is non-empty and exactly ``pred_ranges``
  of the guard it decodes to (sorted, disjoint, non-adjacent, in
  domain) — the guard-level twin of capture's replay check;
* fragments are keyed by the algebra's ``repr`` — a fragment can never
  be instantiated against a different domain.
"""

import json

from repro.alphabet.algebra import pred_ranges
from repro.errors import ReproError
from repro.regex.ast import (
    COMPL, CONCAT, EMPTY, EPSILON, INTER, LOOP, PRED, UNION,
)

#: Version stamp embedded in every saved store; readers reject any
#: other version instead of misinterpreting it.  v2: the pattern
#: grammar gained zero-width assertions (lookarounds, anchors), so v1
#: snapshots may key fragments under pattern texts that now parse to a
#: different language (``\b`` in particular changed reading) — loading
#: them would serve wrong automata for syntactically identical keys.
#: v3: states are the structural program alone, checked by replay at
#: capture; v2 programs were never checked.  v4: a fragment's distinct
#: guards sit once in its ``guards`` table, and rows and predicate ops
#: refer to them by index.  Bump it with any change to a smart
#: constructor's normal form.
STORE_SCHEMA_VERSION = 4

#: Fragments larger than this many states are not stored: the artifact
#: size (and the warm-side decode cost) would rival a cold rebuild.
DEFAULT_MAX_STATES = 512


def canonical_pattern(builder, regex):
    """The canonical store key of ``regex``, or None when uncacheable.

    The key is the printed pattern text, accepted only when parsing it
    re-interns to the *identical* node — then print ∘ parse ∘ print is
    trivially a fixpoint and every spelling of the same interned regex
    maps to one key.  Rendering or parse failures (exotic predicates,
    algebra-specific spellings) make the regex uncacheable, never
    wrongly cached.
    """
    from repro.regex.parser import parse
    from repro.regex.printer import to_pattern

    try:
        text = to_pattern(regex, builder.algebra)
        if parse(builder, text) is not regex:
            return None
    except (ReproError, RecursionError):
        return None
    return text


def _encode_states(states, guards):
    """Compile the states' shared DAG into a flat postorder program.

    Returns ``(ops, slots)`` — ``ops[i]`` builds one node from earlier
    slots, ``slots[j]`` is the slot of state ``j`` — or None when a
    node cannot be encoded.  ``guards`` maps each predicate met so far
    to its guard-table index, in first-use order; a predicate op adds
    its predicate there.  It keys by the predicate itself, so equal
    guards share one entry.  Replaying the builder calls lands on the
    identical interned nodes whenever the states are in the smart
    constructors' normal form, which :func:`build_fragment` checks.
    """
    ops = []
    slots = {}  # node uid -> slot
    stack = list(reversed(states))
    while stack:
        node = stack[-1]
        if node.uid in slots:
            stack.pop()
            continue
        pending = [c for c in (node.children or ()) if c.uid not in slots]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        kind = node.kind
        if kind == PRED:
            op = ["p", guards.setdefault(node.pred, len(guards))]
        elif kind == EPSILON:
            op = ["e"]
        elif kind == EMPTY:
            op = ["E"]
        elif kind == COMPL:
            op = ["n", slots[node.children[0].uid]]
        elif kind == LOOP:
            op = ["l", slots[node.children[0].uid], node.lo, node.hi]
        elif kind == CONCAT:
            op = ["c", [slots[c.uid] for c in node.children]]
        elif kind == UNION:
            op = ["u", [slots[c.uid] for c in node.children]]
        elif kind == INTER:
            op = ["i", [slots[c.uid] for c in node.children]]
        else:
            return None
        slots[node.uid] = len(ops)
        ops.append(op)
    return ops, [slots[s.uid] for s in states]


def build_fragment(builder, root, key, rows_by_node,
                   max_states=DEFAULT_MAX_STATES):
    """Serialize captured transition rows into a JSON-safe fragment.

    ``rows_by_node`` maps expanded regex nodes to their full transition
    rows — ``(guard, successor-tuple)`` pairs, bottom rows included, in
    the order the exploration used them.  Only states reachable from
    ``root`` through the captured rows are kept (the rest belong to
    other queries' closures).  Rows and predicate ops name their guard
    by index into the fragment's ``guards`` table, which holds each
    distinct guard's ranges once.  Returns None when the fragment is too
    large, a guard or state is unserializable, or replaying the
    program on ``builder`` does not give back every state's very node
    — a fragment is either exact or absent.
    """
    algebra = builder.algebra
    index = {root.uid: 0}  # state uid -> state index
    states = [root]
    cursor = 0
    while cursor < len(states):
        rows = rows_by_node.get(states[cursor])
        cursor += 1
        if rows is None:
            continue
        for _guard, targets in rows:
            for target in targets:
                if target.uid not in index:
                    if len(states) >= max_states:
                        return None
                    index[target.uid] = len(states)
                    states.append(target)
    guards = {}
    serialized = {}
    for node, rows in rows_by_node.items():
        idx = index.get(node.uid)
        if idx is None:
            continue
        serialized[str(idx)] = [
            [guards.setdefault(guard, len(guards)),
             [index[t.uid] for t in targets]]
            for guard, targets in rows
        ]
    encoded = _encode_states(states, guards)
    if not serialized or encoded is None:
        return None
    table = [pred_ranges(algebra, guard) for guard in guards]
    if None in table:
        return None
    fragment = {
        "key": key,
        "algebra": repr(algebra),
        "guards": table,
        "rows": serialized,
        "code": encoded[0],
        "slots": encoded[1],
    }
    replay = LazyFragment(builder, fragment)
    for idx, node in enumerate(states):
        if replay.node(idx) is not node:
            return None
    return fragment


class LazyFragment:
    """Per-state, on-demand instantiation of one fragment.

    Rebuilding a whole fragment eagerly can cost *more* than a cold
    solve that finds its witness two expansions in.  This wrapper
    decodes exactly what exploration touches: materializing one state's
    rows decodes that state's successors (needed anyway — they are the
    next frontier) and nothing else, so the warm path's work is
    proportional to the explored prefix, just like the cold path's.
    Guards decode the same way: each table entry once, on first use.
    """

    __slots__ = ("builder", "fragment", "_nodes", "_values", "_guards")

    def __init__(self, builder, fragment):
        self.builder = builder
        self.fragment = fragment
        self._nodes = {}
        #: per-slot node cache for the structural program
        self._values = {}
        #: guard-table index -> decoded predicate
        self._guards = {}

    def node(self, idx):
        """The interned node of state ``idx``, rebuilt on first use
        from the structural program; None when the state does not
        decode (a malformed snapshot degrades to a cold solve, never a
        wrong one or a hang)."""
        node = self._nodes.get(idx)
        if node is None:
            node = self._decode(idx)
            if node is None:
                return None
            self._nodes[idx] = node
        return node

    def _decode(self, idx):
        slots = self.fragment["slots"]
        try:
            if not 0 <= idx < len(slots):
                return None
            return self._eval_slot(slots[idx])
        except (ReproError, IndexError, KeyError, TypeError, ValueError):
            return None

    def _guard(self, ref):
        """The predicate of guard-table entry ``ref``, decoded on first
        use.  Capture writes each entry as ``pred_ranges`` of its guard,
        so an entry that is empty or is not exactly ``pred_ranges`` of
        what it decodes to (unsorted, overlapping, adjacent, out of
        domain) raises ValueError, as does a negative index; an index
        past the table raises IndexError."""
        guard = self._guards.get(ref)
        if guard is None:
            if ref < 0:
                raise ValueError("negative guard index %r" % (ref,))
            ranges = self.fragment["guards"][ref]
            algebra = self.builder.algebra
            guard = algebra.from_ranges(ranges)
            if not ranges or pred_ranges(algebra, guard) != ranges:
                raise ValueError("guard %d is not canonical" % ref)
            self._guards[ref] = guard
        return guard

    def _eval_slot(self, slot):
        """Run the structural program up to ``slot`` (iterative, memoized
        per slot — shared subterms across states evaluate once).  Every
        operand must name an earlier op, as the postorder encoding
        guarantees, so a corrupt program cannot loop."""
        values = self._values
        node = values.get(slot)
        if node is not None:
            return node
        builder = self.builder
        ops = self.fragment["code"]
        if not 0 <= slot < len(ops):
            raise IndexError("slot %r outside the program" % (slot,))
        stack = [slot]
        while stack:
            idx = stack[-1]
            if idx in values:
                stack.pop()
                continue
            op = ops[idx]
            tag = op[0]
            if tag in ("c", "u", "i"):
                operands = op[1]
            elif tag in ("n", "l"):
                operands = (op[1],)
            else:
                operands = ()
            pending = []
            for operand in operands:
                if not 0 <= operand < idx:
                    raise IndexError(
                        "op %d reads slot %r, not an earlier one"
                        % (idx, operand)
                    )
                if operand not in values:
                    pending.append(operand)
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if tag == "p":
                values[idx] = builder.pred(self._guard(op[1]))
            elif tag == "e":
                values[idx] = builder.epsilon
            elif tag == "E":
                values[idx] = builder.empty
            elif tag == "n":
                values[idx] = builder.compl(values[op[1]])
            elif tag == "l":
                values[idx] = builder.loop(values[op[1]], op[2], op[3])
            elif tag == "c":
                values[idx] = builder.concat([values[c] for c in op[1]])
            elif tag == "u":
                values[idx] = builder.union([values[c] for c in op[1]])
            elif tag == "i":
                values[idx] = builder.inter([values[c] for c in op[1]])
            else:
                raise ValueError("unknown op %r" % (tag,))
        return values[slot]

    def row_targets(self, idx):
        """The raw serialized rows of state ``idx``, or None when that
        state was never captured or its rows are not a list."""
        raw = self.fragment["rows"].get(str(idx))
        return raw if isinstance(raw, list) else None

    def rows_for(self, idx):
        """Materialize state ``idx``'s full rows —
        ``((guard, successor-tuple), ...)`` in recorded order — or None
        when the state was not captured or does not decode (a guard
        index or entry :meth:`_guard` rejects included)."""
        raw = self.row_targets(idx)
        if raw is None:
            return None
        out = []
        try:
            for ref, targets in raw:
                guard = self._guard(ref)
                nodes = []
                for target in targets:
                    node = self.node(target)
                    if node is None:
                        return None
                    nodes.append(node)
                out.append((guard, tuple(nodes)))
        except (ReproError, IndexError, KeyError, TypeError, ValueError):
            return None
        return tuple(out)


def _well_formed(fragment):
    """Does ``fragment`` have the v4 shape?  What lies inside ``guards``,
    ``rows``, ``code`` and ``slots`` is checked per state as it decodes
    (:class:`LazyFragment`), so loading stays linear in fragments."""
    return (
        isinstance(fragment, dict)
        and isinstance(fragment.get("key"), str)
        and isinstance(fragment.get("algebra"), str)
        and isinstance(fragment.get("guards"), list)
        and isinstance(fragment.get("rows"), dict)
        and isinstance(fragment.get("code"), list)
        and isinstance(fragment.get("slots"), list)
    )


class SolverStore:
    """Compiled fragments keyed by (algebra repr, canonical pattern).

    One store instance can back many solvers (the serve workers share a
    read-only snapshot); mutation is insert-only, so a torn view never
    corrupts — at worst a concurrent reader misses a fresh fragment and
    solves cold.
    """

    def __init__(self, max_states=DEFAULT_MAX_STATES):
        self.max_states = max_states
        self._fragments = {}
        #: keys inserted since construction/load — what a worker ships
        #: back to the pool when it retires
        self._new = []
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._fragments)

    def lookup(self, algebra_key, pattern_key):
        """The fragment for a key pair, counting the hit or miss."""
        fragment = self._fragments.get((algebra_key, pattern_key))
        if fragment is None:
            self.misses += 1
        else:
            self.hits += 1
        return fragment

    def insert(self, fragment):
        """Add one fragment; first write wins (fragments for the same
        key record the same facts, so there is nothing to reconcile)."""
        key = (fragment["algebra"], fragment["key"])
        if key in self._fragments:
            return False
        self._fragments[key] = fragment
        self._new.append(key)
        return True

    def merge(self, fragments):
        """Fold a list of fragment dicts in; returns how many were new."""
        added = 0
        for fragment in fragments:
            if self.insert(fragment):
                added += 1
        return added

    def export_new(self):
        """The fragments inserted since this store was built/loaded."""
        return [self._fragments[key] for key in self._new
                if key in self._fragments]

    # -- persistence --------------------------------------------------------

    def to_dict(self):
        return {
            "v": STORE_SCHEMA_VERSION,
            "fragments": [
                self._fragments[key] for key in sorted(self._fragments)
            ],
        }

    def from_dict(self, data):
        """Load fragments from :meth:`to_dict` output (additive; loaded
        fragments do not count as new).  Raises ValueError on a
        malformed or other-schema payload, before loading any of it."""
        if not isinstance(data, dict):
            raise ValueError("store payload is not a mapping")
        if data.get("v", 0) != STORE_SCHEMA_VERSION:
            raise ValueError(
                "store schema %r does not match %d"
                % (data.get("v"), STORE_SCHEMA_VERSION)
            )
        fragments = data.get("fragments")
        if not isinstance(fragments, list) \
                or not all(map(_well_formed, fragments)):
            raise ValueError("malformed store fragments")
        for fragment in fragments:
            self._fragments.setdefault(
                (fragment["algebra"], fragment["key"]), fragment
            )
        return self

    def save(self, path):
        """Write the snapshot atomically: serialize to a sibling temp
        file, fsync, then ``os.replace`` over the target.  A reader (a
        worker spawning mid-save, a concurrent ``--store`` CLI run)
        always sees either the old complete file or the new complete
        file — never a torn prefix."""
        import os
        import tempfile

        path = str(path)
        directory = os.path.dirname(path) or "."
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp",
            dir=directory,
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, sort_keys=True)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def save_merged(self, path):
        """Atomic save that first folds in whatever another writer put
        at ``path`` since we loaded it.  Two pools (or a daemon plus a
        CLI run) sharing one ``--store FILE`` race benignly: the merge
        is insert-only, so the loser of the ``os.replace`` race drops
        at most the winner's *simultaneous* additions, never corrupts
        the file, and a later save converges.  A malformed or torn
        on-disk file (pre-atomic writers) is skipped rather than
        fatal — this path exists to *improve* the snapshot."""
        try:
            current = SolverStore(max_states=self.max_states)
            current.load(path)
            self.merge(current.to_dict()["fragments"])
        except (OSError, ValueError):
            pass
        return self.save(path)

    def load(self, path):
        """Load a snapshot file; missing files are a clean no-op (a
        first run starts cold), malformed ones raise ValueError.

        A snapshot with a *different schema version* is also a clean
        cold start, not an error: the v1→v2 bump changed what pattern
        texts mean (zero-width assertions), so serving v1 fragments
        under v2 keys could answer with the wrong automaton, and v2
        programs were never checked by replay.  Starting cold is always
        correct, merely slower; the next save rewrites the file at the
        current version.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return self
        if isinstance(data, dict) \
                and data.get("v", 0) != STORE_SCHEMA_VERSION:
            return self
        return self.from_dict(data)

    def stats(self):
        return {
            "fragments": len(self._fragments),
            "hits": self.hits,
            "misses": self.misses,
        }

    def __repr__(self):
        return "SolverStore(%d fragments, %d hits, %d misses)" % (
            len(self._fragments), self.hits, self.misses,
        )
