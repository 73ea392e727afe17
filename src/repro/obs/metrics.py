"""Solver metrics: counters plus the layers' own counts, read in place.

A :class:`MetricsRegistry` is a named tree of counts.  Counts the
solver layers keep as plain ints are not copied in at all: a scope
registers a reader (:meth:`MetricsRegistry.read_from`) and
:meth:`~MetricsRegistry.snapshot` reads them in place.  The few counts
no layer keeps are :class:`Counter` instruments, created once
(``registry.counter("compactions")``) and then bumped on the hot path
by a direct method call (``counter.inc()``) — no string lookups, no
locks (the solver is single-threaded per query).

The null backend (:data:`NULL_METRICS`, :data:`NULL_COUNTER`) mirrors
the whole API with no-ops so instrumented code needs no ``if enabled``
branches: when metrics are disabled, every update is one attribute
lookup plus an empty call.
"""

import math
import weakref


def percentile(sorted_values, q):
    """Nearest-rank q-quantile of an ascending list (None when empty):
    the smallest value with at least ``q`` of the values at or below
    it."""
    if not sorted_values:
        return None
    rank = max(math.ceil(q * len(sorted_values)), 1)
    return sorted_values[min(rank, len(sorted_values)) - 1]


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "value")

    def __init__(self, name=""):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def __repr__(self):
        return "Counter(%s=%d)" % (self.name, self.value)


class MetricsRegistry:
    """A named tree of counters and in-place readers.

    ``scope(name)`` returns (and caches) a child registry whose metric
    names are prefixed ``name.``; ``snapshot()`` flattens the whole
    tree into a plain ``{name: number}`` dict suitable for JSON export.
    """

    enabled = True

    def __init__(self, prefix=""):
        self._prefix = prefix
        self._counters = {}
        self._children = {}
        self._reader = None

    def counter(self, name):
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(self._prefix + name)
        return counter

    def scope(self, name):
        child = self._children.get(name)
        if child is None:
            child = MetricsRegistry(self._prefix + name + ".")
            self._children[name] = child
        return child

    def read_from(self, reader):
        """Read this scope's values from ``reader()`` — a bound method
        returning a ``{name: value}`` dict — whenever a snapshot is
        taken, replacing any earlier reader.  The layers register their
        plain-int counters this way, so nothing copies them per query.

        The method is held weakly: the layer already holds the registry,
        and a strong reference back would put every solver stack in a
        reference cycle that only the cyclic collector frees."""
        self._reader = weakref.WeakMethod(reader)

    def snapshot(self):
        """Flatten the registry tree into ``{dotted-name: value}``:
        every counter's value, and the values the scope's reader
        reads."""
        out = {counter.name: counter.value
               for counter in self._counters.values()}
        reader = self._reader() if self._reader is not None else None
        if reader is not None:
            for name, value in reader().items():
                out[self._prefix + name] = value
        for child in self._children.values():
            out.update(child.snapshot())
        return out

    def __repr__(self):
        return "MetricsRegistry(%r, %d metrics)" % (
            self._prefix, len(self.snapshot())
        )


# -- the null backend ---------------------------------------------------------


class NullCounter:
    """No-op counter: hot paths pay one attribute lookup + empty call."""

    __slots__ = ()
    name = ""
    value = 0

    def inc(self, amount=1):
        pass


NULL_COUNTER = NullCounter()


class NullMetrics:
    """Registry stand-in that hands out the shared no-op counter."""

    enabled = False

    def counter(self, name):
        return NULL_COUNTER

    def scope(self, name):
        return self

    def read_from(self, reader):
        pass

    def snapshot(self):
        return {}

    def __repr__(self):
        return "NullMetrics()"


NULL_METRICS = NullMetrics()
