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
* :func:`build_fragment` / :func:`instantiate_fragment` — serialize a
  solved pattern's transition rows (state patterns plus guard ranges
  plus successor indices, in recorded order) to a JSON-safe dict, and
  rebuild them against any builder over an equivalent algebra.
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
* every state pattern is round-trip checked at capture time
  (``parse(print(node)) is node``); a fragment that fails the check is
  discarded rather than stored;
* row order and successor order are preserved exactly as captured
  (successors uid-sorted at capture), so warm exploration visits
  states in the same order as the capturing cold run;
* guards are serialized as codepoint ranges and rebuilt through the
  consuming algebra's ``from_ranges``, keyed by the algebra's ``repr``
  — a fragment can never be instantiated against a different domain.
"""

import json

from repro.alphabet.algebra import pred_ranges
from repro.errors import AlgebraError, ReproError
from repro.regex.ast import (
    COMPL, CONCAT, EMPTY, EPSILON, INTER, LOOP, PRED, UNION,
)

#: Version stamp embedded in every saved store; readers reject any
#: other version instead of misinterpreting it.  v2: the pattern
#: grammar gained zero-width assertions (lookarounds, anchors), so v1
#: snapshots may key fragments under pattern texts that now parse to a
#: different language (``\b`` in particular changed reading) — loading
#: them would serve wrong automata for syntactically identical keys.
STORE_SCHEMA_VERSION = 2

#: Fragments larger than this many states are not stored: the artifact
#: size (and the warm-side parse cost) would rival a cold rebuild.
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


def _encode_states(algebra, states):
    """Compile the states' shared DAG into a flat postorder program.

    Returns ``(ops, slots)`` — ``ops[i]`` builds one node from earlier
    slots, ``slots[j]`` is the slot of state ``j`` — or None when a
    node cannot be encoded.  The program exists because rebuilding a
    state from its pattern *text* costs a full tokenizer/parser pass,
    which profiles as the warm path's dominant cost; replaying builder
    calls over pre-decoded ranges is an order of magnitude cheaper and
    lands on the identical interned nodes (the smart constructors are
    the normal form, however a node is reached).
    """
    ops = []
    slots = {}
    stack = list(reversed(states))
    while stack:
        node = stack[-1]
        if node in slots:
            stack.pop()
            continue
        pending = [c for c in (node.children or ()) if c not in slots]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        kind = node.kind
        if kind == PRED:
            ranges = pred_ranges(algebra, node.pred)
            if ranges is None:
                return None
            op = ["p", ranges]
        elif kind == EPSILON:
            op = ["e"]
        elif kind == EMPTY:
            op = ["E"]
        elif kind == COMPL:
            op = ["n", slots[node.children[0]]]
        elif kind == LOOP:
            op = ["l", slots[node.children[0]], node.lo, node.hi]
        elif kind == CONCAT:
            op = ["c", [slots[c] for c in node.children]]
        elif kind == UNION:
            op = ["u", [slots[c] for c in node.children]]
        elif kind == INTER:
            op = ["i", [slots[c] for c in node.children]]
        else:
            return None
        slots[node] = len(ops)
        ops.append(op)
    return ops, [slots[s] for s in states]


def build_fragment(builder, root, key, rows_by_node,
                   max_states=DEFAULT_MAX_STATES):
    """Serialize captured transition rows into a JSON-safe fragment.

    ``rows_by_node`` maps expanded regex nodes to their full transition
    rows — ``(guard, successor-tuple)`` pairs, bottom rows included, in
    the order the exploration used them.  Only states reachable from
    ``root`` through the captured rows are kept (the rest belong to
    other queries' closures).  Returns None when the fragment is too
    large, a guard is unserializable, or any state fails the print →
    parse round-trip check — a fragment is either exact or absent.
    """
    from repro.regex.parser import parse
    from repro.regex.printer import to_pattern

    algebra = builder.algebra
    index = {root: 0}
    states = [root]
    cursor = 0
    while cursor < len(states):
        rows = rows_by_node.get(states[cursor])
        cursor += 1
        if rows is None:
            continue
        for _guard, targets in rows:
            for target in targets:
                if target not in index:
                    if len(states) >= max_states:
                        return None
                    index[target] = len(states)
                    states.append(target)
    texts = []
    for node in states:
        try:
            text = to_pattern(node, algebra)
            if parse(builder, text) is not node:
                return None
        except (ReproError, RecursionError):
            return None
        texts.append(text)
    serialized = {}
    for node, rows in rows_by_node.items():
        idx = index.get(node)
        if idx is None:
            continue
        out_rows = []
        for guard, targets in rows:
            ranges = pred_ranges(algebra, guard)
            if ranges is None:
                return None
            out_rows.append([ranges, [index[t] for t in targets]])
        serialized[str(idx)] = out_rows
    if not serialized:
        return None
    fragment = {
        "key": key,
        "algebra": repr(algebra),
        "states": texts,
        "rows": serialized,
    }
    encoded = _encode_states(algebra, states)
    if encoded is not None:
        fragment["code"], fragment["slots"] = encoded
    return fragment


def instantiate_fragment(builder, fragment):
    """Rebuild a fragment's rows against ``builder``.

    Returns ``{node: ((guard, successor-tuple), ...), ...}`` — full
    rows in recorded order — or None when any state no longer parses
    (a stale snapshot over a changed grammar degrades to a cold solve,
    never to a wrong one).
    """
    from repro.regex.parser import parse

    algebra = builder.algebra
    try:
        nodes = [parse(builder, text) for text in fragment["states"]]
    except (ReproError, RecursionError):
        return None
    out = {}
    try:
        for idx, rows in fragment["rows"].items():
            node = nodes[int(idx)]
            out[node] = tuple(
                (
                    algebra.from_ranges([(lo, hi) for lo, hi in ranges]),
                    tuple(nodes[t] for t in targets),
                )
                for ranges, targets in rows
            )
    except (ReproError, IndexError, KeyError, TypeError, ValueError):
        return None
    return out


class LazyFragment:
    """Per-state, on-demand instantiation of one fragment.

    Rebuilding a whole fragment eagerly parses every captured state —
    which can cost *more* than a cold solve that finds its witness two
    expansions in.  This wrapper parses exactly what exploration
    touches: materializing one state's rows parses that state's
    successor texts (needed anyway — they are the next frontier) and
    nothing else, so the warm path's work is proportional to the
    explored prefix, just like the cold path's.
    """

    __slots__ = ("builder", "fragment", "_nodes", "_values")

    def __init__(self, builder, fragment):
        self.builder = builder
        self.fragment = fragment
        self._nodes = {}
        #: per-slot node cache for the structural program
        self._values = {}

    def node(self, idx):
        """The interned node of state ``idx``, rebuilt on first use;
        None when the state no longer decodes (stale snapshot over a
        changed grammar — degrade to a cold solve, never a wrong one).

        Fragments carry two rebuilding routes: the structural program
        (``code``/``slots`` — direct builder calls over pre-decoded
        ranges, the fast path) and the pattern texts (``states`` — the
        roundtrip-checked, human-readable fallback for snapshots
        written before the program existed or whose program fails).
        Both land on the same interned node: the smart constructors
        are the normal form.
        """
        node = self._nodes.get(idx)
        if node is None:
            node = self._decode(idx)
            if node is None:
                return None
            self._nodes[idx] = node
        return node

    def _decode(self, idx):
        fragment = self.fragment
        slots = fragment.get("slots")
        if slots is not None and 0 <= idx < len(slots):
            try:
                return self._eval_slot(slots[idx])
            except (AlgebraError, IndexError, KeyError, TypeError,
                    ValueError):
                pass
        from repro.regex.parser import parse

        try:
            return parse(self.builder, fragment["states"][idx])
        except (ReproError, RecursionError, IndexError):
            return None

    def _eval_slot(self, slot):
        """Run the structural program up to ``slot`` (iterative, memoized
        per slot — shared subterms across states evaluate once)."""
        values = self._values
        node = values.get(slot)
        if node is not None:
            return node
        builder = self.builder
        algebra = builder.algebra
        ops = self.fragment["code"]
        stack = [slot]
        while stack:
            idx = stack[-1]
            if idx in values:
                stack.pop()
                continue
            op = ops[idx]
            tag = op[0]
            if tag in ("c", "u", "i"):
                pending = [c for c in op[1] if c not in values]
            elif tag in ("n", "l"):
                pending = [] if op[1] in values else [op[1]]
            else:
                pending = []
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if tag == "p":
                values[idx] = builder.pred(
                    algebra.from_ranges([(lo, hi) for lo, hi in op[1]])
                )
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
        """The raw serialized rows of state ``idx`` (or None when that
        state was never captured)."""
        return self.fragment["rows"].get(str(idx))

    def rows_for(self, idx):
        """Materialize state ``idx``'s full rows —
        ``((guard, successor-tuple), ...)`` in recorded order — or None
        when the state was not captured or no longer decodes."""
        raw = self.row_targets(idx)
        if raw is None:
            return None
        algebra = self.builder.algebra
        out = []
        try:
            for ranges, targets in raw:
                guard = algebra.from_ranges([(lo, hi) for lo, hi in ranges])
                nodes = []
                for target in targets:
                    node = self.node(target)
                    if node is None:
                        return None
                    nodes.append(node)
                out.append((guard, tuple(nodes)))
        except (ReproError, TypeError, ValueError, KeyError):
            return None
        return tuple(out)


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
        malformed or future-schema payload."""
        if not isinstance(data, dict):
            raise ValueError("store payload is not a mapping")
        if data.get("v", 0) != STORE_SCHEMA_VERSION:
            raise ValueError(
                "store schema %r does not match %d"
                % (data.get("v"), STORE_SCHEMA_VERSION)
            )
        for fragment in data.get("fragments", ()):
            if not isinstance(fragment, dict) or "key" not in fragment \
                    or "algebra" not in fragment or "states" not in fragment:
                raise ValueError("malformed store fragment")
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
        under v2 keys could answer with the wrong automaton.  Starting
        cold is always correct, merely slower; the next save rewrites
        the file at the current version.
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
